"""Central finite differences with two-step Richardson extrapolation.

They serve only the checks ``verify_axioms`` and ``remainder_swap_residual``,
which stay independent of the Taylor jets (``series``) that every
second-kind coefficient comes from.  Steps are chosen per derivative order
to balance truncation against roundoff: h = scale * EPS**(1/(order+2)),
which is the usual 1e-5 * scale for first derivatives.  All target functions here are
holomorphic in the parameters, so differencing along the real axis yields the
complex derivative.  f may return a scalar or an array; an object array of
Python complex is differenced entrywise in exactly the scalar arithmetic.
"""

from __future__ import annotations

import numpy as np

EPS = 1e-15


def default_step(scale: float, order: int = 1) -> float:
    return (1.0 + abs(float(scale))) * EPS ** (1.0 / (order + 2))


def partial_fd(f, z, i: int, h: float):
    zp = np.array(z, dtype=complex)
    zm = zp.copy()
    zp[i] += h
    zm[i] -= h
    return (f(zp) - f(zm)) / (2.0 * h)


def multi_partial_fd(f, z, alpha, h: float):
    """Nested central differences for the mixed partial with multi-index alpha."""
    idx = next((j for j, a in enumerate(alpha) if a > 0), None)
    if idx is None:
        return f(np.asarray(z, dtype=complex))
    rest = list(alpha)
    rest[idx] -= 1
    return partial_fd(lambda w: multi_partial_fd(f, w, rest, h), z, idx, h)


def multi_partial(f, z, alpha, h: float):
    """Mixed partial derivative of f at z, Richardson-extrapolated from h and h/2."""
    coarse = multi_partial_fd(f, z, alpha, h)
    fine = multi_partial_fd(f, z, alpha, h / 2.0)
    return (4.0 * fine - coarse) / 3.0
