"""One workload in one fresh process; prints one JSON line.

    python3 bench/worker.py WORKLOAD SEED SECONDS MODE

MODE is ``setup`` (set-up only), ``timed`` (untraced rounds filling about
SECONDS, at least MIN_ROUNDS), ``round`` (round 0 untraced) or ``traced``
(round 0 with spans).  BLAS threads must already be pinned in the
environment; ``run.py`` does that.  Set-up time covers ``import matpot``,
input generation and the long-lived objects a workload builds before its
first op.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import sys
import warnings
from fractions import Fraction
from time import perf_counter

MIN_ROUNDS = 2
# Reported times are scaled to the machine speed at which ``calibrate`` takes
# CAL_REF_S.  A shared virtual host can switch between a fast and a ~1.8x
# slower state for minutes at a time; the same ops then read up to 30%
# slower, and the kernel slows down with them.
CAL_REF_S = 2.0e-3
# spread and residual are reported as log10(max(value, FLOOR)); the floor
# also stands for "no such op in this workload"
FLOOR = 1e-20


def import_matpot(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import matpot

    if not os.path.abspath(matpot.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"matpot imported from {matpot.__file__}, not from {src}")
    return matpot


def calibrate() -> float:
    """Seconds for a fixed pure-Python kernel: exact Fraction elimination and
    frozenset-keyed dict traffic, like matpot's hot paths but no matpot code,
    so a change to the library cannot move it."""
    t0 = perf_counter()
    rows = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 3) for j in range(5)] for i in range(12)]
    for r in range(5):
        piv = rows[r][r] or Fraction(1)
        for i in range(r + 1, 12):
            q = rows[i][r] / piv
            rows[i] = [a - q * b for a, b in zip(rows[i], rows[r])]
    table = {}
    for i in range(400):
        table[frozenset((i % 17, i % 5, i))] = i
    return perf_counter() - t0


def slowdown(samples: int = 9) -> float:
    """Machine slowdown against the reference speed, from a few kernel runs."""
    return statistics.median(calibrate() for _ in range(samples)) / CAL_REF_S


class Tally:
    """Outcomes of executed ops."""

    def __init__(self):
        self.durations: list[float] = []
        self.attempted = self.failed = 0
        self.spread = self.residual = 0.0
        self.digests: dict[str, str] = {}
        self.inconsistent: list[str] = []
        self.failures: dict[str, str] = {}
        self.kinds: dict[str, int] = {}
        # the kernel runs after every op; each run stands for the state of the
        # machine during the ops on either side of it, weighted by their time
        self._last_cal = calibrate()
        self._cal_weighted = 0.0

    def record(self, op, seconds: float, ok: bool, digest: str, spread=None, residual=None):
        cal = calibrate()
        self._cal_weighted += (self._last_cal + cal) / 2 * seconds
        self._last_cal = cal
        self.durations.append(seconds)
        self.attempted += 1
        self.kinds[op.kind] = self.kinds.get(op.kind, 0) + 1
        if not ok:
            self.failed += 1
            self.failures.setdefault(op.key, digest)
        if spread is not None:
            self.spread = max(self.spread, spread)
        if residual is not None:
            self.residual = max(self.residual, residual)
        first = self.digests.setdefault(op.key, digest)
        if first != digest:
            self.inconsistent.append(f"{op.key}: {first} then {digest}")

    def slowdown(self) -> float:
        """Duration-weighted kernel time over the ops, against the reference."""
        return self._cal_weighted / sum(self.durations) / CAL_REF_S

    def quality(self) -> dict:
        return {
            "failed_ratio": self.failed / self.attempted,
            "spread_log10": math.log10(max(self.spread, FLOOR)),
            "residual_log10": math.log10(max(self.residual, FLOOR)),
        }


def run_round(mp, workload, ops, tally: Tally, memo: dict):
    """Execute ops in order; only the library calls are timed."""
    for op in ops:
        t0 = perf_counter()
        try:
            result = workload.call(mp, op)
        except Exception as exc:  # any exception from the library is a failed op
            tally.record(op, perf_counter() - t0, False, f"raised {type(exc).__name__}")
            continue
        seconds = perf_counter() - t0
        try:
            out = workload.check(op, result, memo)
        except Exception as exc:  # a result the reference rejects, or cannot even read
            tally.record(op, seconds, False, f"check: {exc}")
            continue
        tally.record(op, seconds, True, out.digest, out.spread, out.residual)


def timed_rounds(workload, seconds: float) -> int:
    """Whole rounds that fill about SECONDS at the workload's nominal round
    time.  The work per run is fixed by SECONDS, not by the clock, so every
    seed, and every later version of the library, measures the same ops."""
    return max(MIN_ROUNDS, round(seconds / workload.round_s))


def tail_percentile(inputs: int) -> int:
    """Highest whole percentile with at least ten samples beyond it, counting
    distinct inputs: repeats of one input (every round of ``equivalence``)
    are not independent samples, and counting them would put the tail on
    whichever repeat of a few heavy inputs happens to land at that rank."""
    return max(50, math.floor(100 * (1 - 10 / inputs)))


def nearest_rank(sorted_values, pct: float) -> float:
    idx = max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)
    return sorted_values[idx]


def main(argv):
    name, seed, seconds, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    t0 = perf_counter()
    mp = import_matpot(root)
    import workloads

    workload = workloads.WORKLOADS[name]
    ops0 = workload.generate(seed, 0)
    workload.prepare(mp, ops0)
    setup_s = perf_counter() - t0
    out = {"setup_s": setup_s / slowdown()}
    if mode == "setup":
        print(json.dumps(out))
        return
    warnings.simplefilter("ignore", RuntimeWarning)  # numpy noise from the known NaN instance
    # lru-cached before any tracing wrapper replaces the module bindings
    strong = [getattr(mp.systems, a) for a in ("find_strong_decomposition", "strong_deficiency_witness")]
    strong0 = _cache_counts(strong)
    tracer = None
    if mode == "traced":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    tally, memo = Tally(), {}
    start = perf_counter()
    run_round(mp, workload, ops0, tally, memo)
    round0_s = sum(tally.durations) / tally.slowdown()
    quality = tally.quality()
    hits, misses = (a - b for a, b in zip(_cache_counts(strong), strong0))
    out.update(quality)
    out.update(
        round0_s=round0_s,
        round0_ops=len(ops0),
        round0_failures=dict(tally.failures),
        strong_hit_ratio=hits / (hits + misses) if hits + misses else 0.0,
        op_mix=dict(tally.kinds),
    )
    rounds = timed_rounds(workload, seconds) if mode == "timed" else 1
    if mode == "timed":
        for rnd in range(1, rounds):
            ops = workload.generate(seed, rnd) if workload.fresh_inputs_per_round else ops0
            if ops is not ops0:
                workload.prepare(mp, ops)
            run_round(mp, workload, ops, tally, memo)
        speed = tally.slowdown()
        durations = sorted(tally.durations)
        pct = tail_percentile(len(tally.digests))
        raw = {
            "ops_per_s": tally.attempted / sum(durations),
            "op_p50_s": nearest_rank(durations, 50),
            "op_tail_s": nearest_rank(durations, pct),
        }
        out.update(
            ops_per_s=raw["ops_per_s"] * speed,
            op_p50_s=raw["op_p50_s"] / speed,
            op_tail_s=raw["op_tail_s"] / speed,
            raw=raw,
            slowdown=speed,
            tail_percentile=pct,
            samples=len(durations),
            inputs=len(tally.digests),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
    if tracer is not None:
        speed = tally.slowdown()
        layers = {k: v / speed if k.endswith("_s") else v for k, v in tracer.metrics().items()}
        out["layers"] = dict(layers, **{"systems.strong_hit_ratio": out["strong_hit_ratio"]})
        out["slowdown"] = speed
        out["spans"] = tracer.span_summary()
        os.makedirs(os.path.join(root, "bench", "out"), exist_ok=True)
        tracer.save(os.path.join(root, "bench", "out", f"spans-{name}.bin"))
    out.update(
        rounds=rounds,
        attempted=tally.attempted,
        failed=tally.failed,
        inconsistent=tally.inconsistent,
        wall_s=perf_counter() - start,
    )
    print(json.dumps(out))


def _cache_counts(fns):
    hits = misses = 0
    for fn in fns:
        info = getattr(fn, "cache_info", None)
        if info is not None:
            ci = info()
            hits, misses = hits + ci.hits, misses + ci.misses
    return hits, misses


if __name__ == "__main__":
    main(sys.argv[1:])
