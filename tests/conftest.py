import random
from fractions import Fraction
from itertools import compress

import numpy as np
import pytest

import matpot.arrangements
from matpot import (
    ArrangementData,
    Context,
    LinearMatroid,
    UniformMatroid,
    structure_from_arrangement,
)
from oracles import discriminant_probe


@pytest.fixture
def fiber_solves(monkeypatch):
    """Records each fiber that ``arrangements._fibers`` solves, the stacked
    solver under ``critical_points`` and every frame jet, as True when it
    is the basepoint fiber and False otherwise: one entry per point, not
    per call."""
    solves = []
    real = matpot.arrangements._fibers

    def counting(data, zs):
        solves.extend(np.array_equal(z, data.basepoint) for z in zs)
        return real(data, zs)

    monkeypatch.setattr(matpot.arrangements, "_fibers", counting)
    return solves


@pytest.fixture
def circuit_queries(monkeypatch):
    """Records each distinct ``LinearMatroid._circuit`` question and its
    answer, keyed by (matroid, class, element), and each row of a batched
    ``LinearMatroid._circuits`` question the same way: the circuit its row
    marks, or None."""
    asked = {}
    real, real_batch = LinearMatroid._circuit, LinearMatroid._circuits

    def recording(self, C, y):
        found = asked[self, C, y] = real(self, C, y)
        return found

    def recording_batch(self, C, ys):
        labels, dependent, incidence = found = real_batch(self, C, ys)
        for y, dep, row in zip(ys, dependent, incidence):
            asked[self, C, y] = frozenset(compress(labels, row)) | {y} if dep else None
        return found

    monkeypatch.setattr(LinearMatroid, "_circuit", recording)
    monkeypatch.setattr(LinearMatroid, "_circuits", recording_batch)
    return asked


@pytest.fixture
def u13():
    return UniformMatroid(1, 3)


@pytest.fixture
def u24():
    return UniformMatroid(2, 4)


@pytest.fixture
def linear_pairs():
    # rows (1,0), (0,1), (1,1): every pair is a base
    return LinearMatroid([(1, 0), (0, 1), (1, 1)])


@pytest.fixture
def ctx_u13_m2(u13):
    return Context(u13, 2)


@pytest.fixture(scope="session")
def fixture_data():
    """Two hyperplanes t + z1, t + z2 with unit weights, basepoint (1, -1)."""
    return ArrangementData([(1,), (1,)], (1, 1), (1, -1))


@pytest.fixture(scope="session")
def fixture_structure(fixture_data):
    return structure_from_arrangement(fixture_data, 2)


def draw_k1_instance(rng, n):
    """One well-conditioned rank-1 arrangement family with rational data."""
    while True:
        b = [Fraction(rng.randint(1, 4)) for _ in range(n)]
        a = [Fraction(rng.randint(1, 4)) for _ in range(n)]
        x = [round(rng.uniform(-1.5, 1.5), 3) for _ in range(n)]
        points = sorted(float(-xi / bi) for xi, bi in zip(x, b))
        if min((q - p for p, q in zip(points, points[1:])), default=0.0) < 0.2:
            continue
        data = ArrangementData([(v,) for v in b], a, x)
        if discriminant_probe(data, data.basepoint):
            return data


@pytest.fixture(scope="session")
def random_k1_instances():
    """Ten deterministic rank-1 instances with n in {3, 4}."""
    rng = random.Random(90125)
    out = []
    for idx in range(10):
        out.append(draw_k1_instance(rng, 3 if idx % 2 == 0 else 4))
    return out


@pytest.fixture(scope="session")
def random_k1_structures(random_k1_instances):
    return [structure_from_arrangement(data, 2) for data in random_k1_instances]


@pytest.fixture(scope="session")
def all_structures(fixture_structure, random_k1_structures):
    return [fixture_structure] + random_k1_structures


@pytest.fixture(scope="session")
def all_families(fixture_data, random_k1_instances):
    """The arrangement families of ``all_structures``, in the same order."""
    return [fixture_data] + random_k1_instances
