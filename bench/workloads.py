"""The four benchmark workloads: seeded inputs, timed library calls, checks.

Each workload is a closed loop with one client: one process, one thread,
one library call (or one fixed sequence of calls) after another.  A *round*
is one pass over the workload's op mix; a run repeats rounds.  Inputs are a
pure function of (seed, round) and are generated without importing matpot;
the library sees only the generated data.  Every result is checked against
``reference``, never against the library itself.

Each round index has a canonical instance set, the same for every seed; the
seed then transforms it without changing the amount of work, so run-to-run
spread stays below the regression bounds.  In ``equivalence`` and
``partition`` the seed permutes the labels (rows and multiplicities) and
rescales each matrix row by a nonzero rational, which leaves a linear matroid
unchanged.  In ``potentials`` and ``fibers_k2`` it draws the axiom sample
points and the two nearby fibers; the arrangements themselves stay
canonical, because relabelling hyperplanes reorders the nested finite
differences and the rank-2 seed cloud and so flips borderline failures from
seed to seed.

Known defects stay in the mix on purpose and count as failed ops:

* ``potentials`` keeps the truncation-order reproducer (B = [[1],[1],[2],[2],
  [1]], N_max = 6), which raises WellDefinednessError at this version, and
  seeded orders up to mk+5, where nested finite differences lose accuracy.
* ``fibers_k2`` keeps the rank-2 instance whose solver output contains an
  all-NaN point and one point too many.

Rank-1 structures with m = 3 are left out of ``potentials``: they stop at
FlatnessError in first_kind_polynomial, and whether that is the correct
answer for an m = 3 residue form has not been checked.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

import reference as ref

ROADMAP_MATROID = ((1, 0), (0, 1), (1, 1), (1, 2), (2, 1), (3, 1))
ROADMAP_T = (3, 2, 2, 2, 2, 2)
ITEM3 = {
    "B": ((1,), (1,), (2,), (2,), (1,)),
    "a": (2, 4, 1, 3, 1),
    "x": (0.688, -1.435, -1.47, 0.752, -0.422),
    "n_max": 6,
}
ITEM4 = {
    "B": ((-1, -1), (0, 1), (0, 1), (2, 3), (1, 2), (-3, -3)),
    "a": (2, 3, 3, 3, 3, 1),
    "x": (-0.1 + 0.2j, 1.8 + 0.1j, 0.3 - 0.2j, -1.6 + 0.2j, 1.6 + 0.2j, 0.8 + 0j),
}
ITEM4_OFFSETS = (
    (0.011, -0.007j, 0.004, 0.009j, -0.013, 0.006),
    (-0.008j, 0.012, -0.005j, -0.01, 0.007j, -0.009),
)


@dataclass
class Op:
    """One closed-loop operation.  ``key`` is equal for ops that repeat the
    same input, so their outcomes can be compared across rounds."""

    key: str
    kind: str
    data: dict
    state: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """A result that passed its reference check."""

    digest: str
    spread: float | None = None
    residual: float | None = None


class CheckFailed(Exception):
    pass


def require(cond, what: str):
    if not cond:
        raise CheckFailed(what)


def _canonical(name: str, rnd: int) -> random.Random:
    """Stream for a round's canonical instances, the same for every seed."""
    return random.Random(f"{name}:canonical:{rnd}")


def _seeded(name: str, seed: int, rnd: int) -> random.Random:
    """Stream for the seed's transform of those instances."""
    return random.Random(f"{name}:{seed}:{rnd}")


SCALES = tuple(Fraction(p, q) for p in (1, -1, 2, -2, 3) for q in (1, 2, 3))


def _relabel(rng, n):
    """A seeded permutation of the labels 0..n-1 (new position of each label)."""
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _permute(values, perm):
    out = [None] * len(values)
    for i, v in enumerate(values):
        out[perm[i]] = v
    return tuple(out)


def _scale_rows(rng, rows):
    """Multiply every row by a seeded nonzero rational: the matroid is unchanged."""
    scales = [rng.choice(SCALES) for _ in rows]
    return [tuple(c * v for v in row) for c, row in zip(scales, rows)]


def _random_rows(rng, n, k, lo=-3, hi=3, denominators=(1,)):
    while True:
        rows = [
            tuple(Fraction(rng.randint(lo, hi), rng.choice(denominators)) for _ in range(k))
            for _ in range(n)
        ]
        if all(any(r) for r in rows) and ref.frac_rank(rows) == k:
            return rows


def _rows_json(rows):
    return [[str(v) if Fraction(v).denominator != 1 else int(v) for v in r] for r in rows]


# ---------------------------------------------------------------- equivalence


class Equivalence:
    name = "equivalence"
    round_s = 3.0  # nominal library seconds per round at this version
    why = (
        "hot shared caches: one session of equivalence_report + descent_move over "
        "small uniform/linear matroids plus the 171-node roadmap system; time sits "
        "in systems.locally_related and oracle cache hits"
    )
    fresh_inputs_per_round = False
    # (matroid id, m, extra labels beyond m*k)
    SHAPES = [
        (mid, m, extra)
        for mid in ("U1,4", "U2,4", "U2,5", "U3,5", "L4,2", "L5,2", "L5,3", "L6,3")
        for m in (2, 3)
        for extra in (2, 3, 4)
    ]

    def generate(self, seed: int, rnd: int) -> list[Op]:
        # one session: the same ops every round
        canon, rng = _canonical(self.name, 0), _seeded(self.name, seed, 0)
        specs, perms = {}, {}
        for mid in sorted({s[0] for s in self.SHAPES}):
            kind, dims = mid[0], tuple(int(v) for v in mid[1:].split(","))
            if kind == "U":
                l, n = dims
                specs[mid] = {"type": "uniform", "l": l, "n": n}
            else:
                n, k = dims
                rows = _random_rows(canon, n, k, -2, 2)
                specs[mid] = {"type": "linear", "matrix": rows}
            perms[mid] = _relabel(rng, n)
        ops = [Op("roadmap", "eq", {"mid": "roadmap", "m": 3, "T": ROADMAP_T,
                                    "matroid": {"type": "linear", "matrix": [list(r) for r in ROADMAP_MATROID]}})]
        shapes = list(self.SHAPES)
        canon.shuffle(shapes)
        bases = {mid: _bases(_oracle(spec)) for mid, spec in specs.items()}
        for i, (mid, m, extra) in enumerate(shapes):
            n = len(perms[mid])
            while True:
                T = [0] * n
                for _ in range(m):
                    for j in canon.choice(bases[mid]):
                        T[j - 1] += 1
                tail = [canon.randint(1, n) for _ in range(extra)]
                if len(set(tail)) >= 2:  # two distinct tail labels give two good decompositions
                    break
            for j in tail:
                T[j - 1] += 1
            ops.append(Op(f"eq{i}", "eq", {"mid": mid, "m": m, "T": _permute(T, perms[mid])}))
        for mid, spec in specs.items():
            if spec["type"] == "linear":
                spec["matrix"] = _rows_json(_permute(_scale_rows(rng, spec["matrix"]), perms[mid]))
        for op in ops[1:]:
            op.data["matroid"] = specs[op.data["mid"]]
        return ops

    def prepare(self, mp, ops):
        contexts = {}
        for op in ops:
            mid = op.data["mid"]
            if (mid, op.data["m"]) not in contexts:
                contexts[(mid, op.data["m"])] = mp.Context(_build_matroid(mp, op.data["matroid"]), op.data["m"])
            op.state["T"] = contexts[(mid, op.data["m"])].system(op.data["T"])

    def call(self, mp, op):
        report = mp.equivalence_report(op.state["T"], max_total=24)
        move = None
        if len(report.nodes) >= 2:
            move = mp.descent_move(report.nodes[0], report.nodes[-1])
        return report, move

    def check(self, op, result, memo) -> Outcome:
        report, move = result
        T = tuple(op.data["T"])
        key = (op.data["mid"], op.data["m"])
        if key not in memo:
            memo[key] = ref.StrongMemo(_oracle(op.data["matroid"]), op.data["m"])
        strong = memo[key]
        oracle = strong.oracle
        t2s = [tuple(d.T2.mult) for d in report.nodes]
        require(t2s == ref.good_second_members(strong, T), "node set differs from the counting-bound reference")
        for d in report.nodes:
            t1, t2 = tuple(d.T1.mult), tuple(d.T2.mult)
            require(all(a + b == c for a, b, c in zip(t1, t2, T)), "T1 + T2 != T")
            w = d.witness
            require(len(w.parts) == op.data["m"], "witness has the wrong number of bases")
            require(all(ref.is_base_part(oracle, p.mult) for p in w.parts), "witness part is not a base")
            require(sum(w.remainder.mult) == 1, "witness remainder is not a single label")
            total = [sum(col) for col in zip(w.remainder.mult, *(p.mult for p in w.parts))]
            require(tuple(total) == t2, "witness does not sum to T2")
        index = {t2: i for i, t2 in enumerate(t2s)}
        want = {
            (i, j)
            for i, j in combinations(range(len(t2s)), 2)
            if ref.locally_related(strong, t2s[i], t2s[j])
        }
        require(set(map(tuple, report.edges)) == want, "edges differ from the l1 local-relation rule")
        parent = list(range(len(t2s)))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i, j in want:
            parent[find(i)] = find(j)
        require(len({find(i) for i in range(len(t2s))}) == 1, "good decompositions are not one class")
        require(report.component_count == 1, "report does not give a single component")
        digest = f"nodes={len(t2s)} edges={len(want)}"
        if move is not None:
            first, last = t2s[0], t2s[-1]
            require(move.distance_before == ref.l1(first, last), "distance_before is not l1(T2, S2)")
            require(move.distance_after == move.distance_before - 2, "descent move did not lower the distance by 2")
            for moved, orig in ((move.moved_t, first), (move.moved_s, last)):
                mt2 = tuple(moved.T2.mult)
                require(tuple(a + b for a, b in zip(moved.T1.mult, mt2)) == T, "moved decomposition does not sum to T")
                require(mt2 in index, "moved T2 is not a good second member")
                require(mt2 == orig or ref.locally_related(strong, mt2, orig), "move is not a local relation")
            require(
                ref.l1(move.moved_t.T2.mult, move.moved_s.T2.mult) == move.distance_after,
                "distance_after is not the l1 distance of the moved pair",
            )
            digest += f" move={move.case}:{move.distance_before}->{move.distance_after}"
        return Outcome(digest)


# ------------------------------------------------------------------ partition


class Partition:
    name = "partition"
    round_s = 5.0  # nominal library seconds per round at this version
    why = (
        "cold caches, large ground sets: solve_partition on 40-64 row rational matroids "
        "near the counting bound, strong decompositions of lifted systems, amin; exact "
        "Fraction elimination dominates"
    )
    fresh_inputs_per_round = True
    # (rows, rank, copies, uniform tail); copies*rank + tail vs rows decides
    # certificate (>=) or deficiency witness (<)
    SOLVE = [(40, 4, 10, 0), (40, 5, 7, 4), (48, 6, 8, 0), (48, 4, 11, 3), (56, 7, 8, 0), (64, 6, 10, 3)]
    # (rows, rank, m, parallel-class size)
    STRONG = [(8, 3, 4, 3), (10, 4, 6, 3), (12, 4, 8, 4), (12, 5, 6, 3), (14, 6, 6, 4), (16, 4, 10, 5)]
    # (rows, rank, copies)
    AMIN = [(10, 3, 2), (11, 3, 3), (12, 3, 3)]

    def generate(self, seed: int, rnd: int) -> list[Op]:
        rng = _canonical(self.name, rnd)
        ops = []
        for i, (n, k, r, tail) in enumerate(self.SOLVE):
            rows = _random_rows(rng, n, k, denominators=(1, 1, 2, 3))
            ops.append(Op(f"r{rnd}:solve{i}", "solve", {"rows": rows, "copies": r, "tail": tail}))
        for i, (n, k, m, par) in enumerate(self.STRONG):
            rows = _random_rows(rng, n - par, k)
            rows += [tuple(c * v for v in rows[0]) for c in rng.sample([2, -1, 3, -2, 4, -3], par)]
            l = rng.randint(1, 4)
            T = [0] * n
            # the rank-1 class {1} + parallel labels gets mass around its bound
            # l + m, so decompositions and violations both occur
            cls = [1] + list(range(n - par + 1, n + 1))
            for _ in range(l + m + rng.choice((-2, -1, 1, 2))):
                T[rng.choice(cls) - 1] += 1
            rest = list(range(2, n - par + 1))
            while sum(T) < m * k + l:
                T[rng.choice(rest) - 1] += 1
            ops.append(Op(f"r{rnd}:strong{i}", "strong", {"rows": rows, "m": m, "l": l, "T": tuple(T)}))
        for i, (n, k, r) in enumerate(self.AMIN):
            rows = []
            for _ in range(r):
                rows += _random_rows(rng, k, k)
            extra = n - r * k
            rows += [tuple(rng.choice((1, 2, -1)) * v for v in rng.choice(rows)) for _ in range(extra - 1)]
            rows += _random_rows(rng, k, k)[:1]
            rng.shuffle(rows)
            ops.append(Op(f"r{rnd}:amin{i}", "amin", {"rows": rows, "copies": r, "tail": extra}))
        rng.shuffle(ops)
        rng = _seeded(self.name, seed, rnd)
        for op in ops:
            perm = _relabel(rng, len(op.data["rows"]))
            op.data["rows"] = list(_permute(_scale_rows(rng, op.data["rows"]), perm))
            if "T" in op.data:
                op.data["T"] = _permute(op.data["T"], perm)
        return ops

    def prepare(self, mp, ops):
        pass

    def call(self, mp, op):
        d = op.data
        if op.kind == "strong":
            ctx = mp.Context(mp.LinearMatroid(d["rows"]), d["m"])
            T = ctx.system(d["T"])
            dec = mp.find_strong_decomposition(T, d["l"])
            return dec, (mp.strong_deficiency_witness(T, d["l"]) if dec is None else None)
        M = mp.LinearMatroid(d["rows"])
        n = len(d["rows"])
        tail = (mp.UniformMatroid(d["tail"], n),) if d["tail"] else ()
        problem = mp.PartitionProblem((M,) * d["copies"] + tail)
        if op.kind == "solve":
            return mp.solve_partition(problem)
        return mp.min_tight_set(problem), mp.slack_elements(problem)

    def check(self, op, result, memo) -> Outcome:
        d = op.data
        oracle = ref.RankOracle(d["rows"])
        n = oracle.n
        if op.kind == "strong":
            dec, violation = result
            m, l, T = d["m"], d["l"], d["T"]
            k = oracle.full_rank
            if dec is not None:
                require(len(dec.parts) == m, "wrong number of bases")
                require(all(ref.is_base_part(oracle, p.mult) for p in dec.parts), "part is not a base")
                require(sum(dec.remainder.mult) == l, "remainder has the wrong size")
                total = [sum(col) for col in zip(dec.remainder.mult, *(p.mult for p in dec.parts))]
                require(tuple(total) == tuple(T), "decomposition does not sum to T")
                return Outcome("decomposition")
            B = frozenset(violation.B)
            require(B <= ref.support(T), "violation set leaves the support")
            require(violation.mass == sum(T[j - 1] for j in B), "violation mass is wrong")
            require(violation.bound == l + m * oracle.rank(B), "violation bound is wrong")
            require(violation.mass > violation.bound, "violation does not violate the bound")
            require(k * m + l == sum(T), "arity")
            return Outcome("violation")
        r, tail = d["copies"], d["tail"]
        ranks = [oracle.rank] * r + ([lambda A: ref.uniform_rank(tail, A)] if tail else [])
        ground = frozenset(range(1, n + 1))
        if op.kind == "solve":
            if hasattr(result, "parts"):
                parts = [frozenset(p) for p in result.parts]
                require(len(parts) == len(ranks), "certificate has the wrong number of parts")
                require(sum(len(p) for p in parts) == n and frozenset().union(*parts) == ground, "parts do not partition the ground set")
                require(all(rk(p) == len(p) for rk, p in zip(ranks, parts)), "a part is dependent")
                return Outcome("certificate")
            A = frozenset(result.A)
            require(A <= ground and result.size == len(A), "witness size is wrong")
            require(result.bound == sum(rk(A) for rk in ranks), "witness bound is wrong")
            require(result.size > result.bound, "witness does not violate the counting bound")
            return Outcome("witness")
        minimal, slack = (frozenset(v) for v in result)
        require(minimal == slack, "minimal tight set differs from the slack elements")
        require(len(minimal) == tail + r * oracle.rank(minimal), "minimal tight set is not tight")
        return Outcome(f"amin={len(minimal)}")


# ----------------------------------------------------------------- potentials


class Potentials:
    name = "potentials"
    round_s = 9.5  # nominal library seconds per round at this version
    why = (
        "rank-1 arrangement structures (n 3-6, m 2, N_max mk+2..mk+5) through verify_axioms "
        "and both potentials; continuation, pairing and nested finite differences dominate; "
        "m=3 left out"
    )
    fresh_inputs_per_round = True
    SHAPES = [(n, n_max) for n in (3, 4, 5, 6) for n_max in (4, 5, 6, 7)]
    M = 2
    DEFECT_BOUND = 1e-8
    AXIOM_BOUND = 1e-6
    MATCH_BOUND = 1e-8

    def generate(self, seed: int, rnd: int) -> list[Op]:
        canon, rng = _canonical(self.name, rnd), _seeded(self.name, seed, rnd)
        ops = [Op("item3", "pot", dict(ITEM3, offsets=self._offsets(random.Random("item3"), 5)))]
        for i, (n, n_max) in enumerate(self.SHAPES):
            while True:
                b = [canon.randint(1, 4) for _ in range(n)]
                a = [canon.randint(1, 4) for _ in range(n)]
                x = [round(canon.uniform(-1.5, 1.5), 3) for _ in range(n)]
                poles = sorted(-xi / bi for xi, bi in zip(x, b))
                if min(q - p for p, q in zip(poles, poles[1:])) < 0.2:
                    continue
                if ref.rank1_well_conditioned(b, a, x):
                    break
            data = {"B": tuple((v,) for v in b), "a": tuple(a), "x": tuple(x), "n_max": n_max,
                    "offsets": self._offsets(rng, n)}
            ops.append(Op(f"r{rnd}:pot{i}", "pot", data))
        canon.shuffle(ops)
        return ops

    @staticmethod
    def _offsets(rng, n):
        return [tuple(round(0.02 * rng.uniform(-1, 1), 4) for _ in range(n)) for _ in range(2)]

    def prepare(self, mp, ops):
        pass

    def call(self, mp, op):
        import numpy as np

        d = op.data
        data = mp.ArrangementData(d["B"], d["a"], d["x"])
        F = mp.structure_from_arrangement(data, self.M)
        x = F.basepoint
        samples = [x] + [x + np.asarray(o, dtype=complex) for o in d["offsets"]]
        report = mp.verify_axioms(F, samples)
        Q = mp.first_kind_polynomial(F)
        L = mp.second_kind_truncation(F, d["n_max"])
        return report, Q, L, mp.check_first_kind(F, Q), mp.check_second_kind(F, L)

    def check(self, op, result, memo) -> Outcome:
        report, Q, L, d1, d2 = result
        d = op.data
        values = list(Q.coefficients.values()) + list(L.coefficients.values())
        require(all(math.isfinite(abs(v)) for v in values), "non-finite coefficient")
        require(math.isfinite(L.spread_max), "non-finite spread")
        require(report.max_violation <= self.AXIOM_BOUND, f"axiom violation {report.max_violation:.2e}")
        scale = max(1.0, max(abs(v) for v in values))
        require(d1 <= self.DEFECT_BOUND * scale, f"first-kind defect {d1:.2e}")
        require(d2 <= self.DEFECT_BOUND * scale, f"second-kind defect {d2:.2e}")
        b = [row[0] for row in d["B"]]
        mk = self.M  # k = 1
        want = ref.rank1_pairing_table(b, d["a"], d["x"], self.M, list(Q.coefficients))
        for T, v in Q.coefficients.items():
            require(abs(v - want[T]) <= self.MATCH_BOUND * max(1.0, abs(want[T])), f"Q{T} differs from the residue reference")
        top = [T for T in L.coefficients if sum(T) == mk + 1]
        want = ref.rank1_pairing_table(b, d["a"], d["x"], self.M, top)
        for T in top:
            require(abs(L.coefficients[T] - want[T]) <= self.MATCH_BOUND * max(1.0, abs(want[T])),
                    f"L{T} differs from the residue reference")
        return Outcome(f"mu={len(b) - 1}", spread=L.spread_max)


# ------------------------------------------------------------------ fibers_k2


class FibersK2:
    name = "fibers_k2"
    round_s = 6.5  # nominal library seconds per round at this version
    why = (
        "rank-2 critical_points (n 4-6, complex basepoints, two nearby fibers) on the "
        "seed-cloud Newton path, checked against the Euler-characteristic count and a "
        "numpy gradient residual"
    )
    fresh_inputs_per_round = True
    SIZES = (4, 4, 5, 5, 6)

    def generate(self, seed: int, rnd: int) -> list[Op]:
        canon, rng = _canonical(self.name, rnd), _seeded(self.name, seed, rnd)
        instances = [("item4", ITEM4["B"], ITEM4["a"], ITEM4["x"], ITEM4_OFFSETS)]
        for i, n in enumerate(self.SIZES):
            while True:
                B = [(canon.randint(-3, 3), canon.randint(-3, 3)) for _ in range(n)]
                if all(any(r) for r in B) and ref.frac_rank(B) == 2:
                    break
            a = [canon.randint(1, 4) for _ in range(n)]
            x = [complex(round(canon.uniform(-2, 2), 3), round(canon.uniform(-0.3, 0.3), 3)) for _ in range(n)]
            offsets = [
                tuple(complex(round(0.02 * rng.uniform(-1, 1), 4), round(0.02 * rng.uniform(-1, 1), 4)) for _ in range(n))
                for _ in range(2)
            ]
            instances.append((f"r{rnd}:fib{i}", tuple(B), tuple(a), tuple(x), offsets))
        ops = []
        for key, B, a, x, offsets in instances:
            zs = [x] + [tuple(xi + oi for xi, oi in zip(x, o)) for o in offsets]
            for j, z in enumerate(zs):
                ops.append(Op(f"{key}@z{j}", "fiber", {"B": B, "a": a, "x": x, "z": z}))
        canon.shuffle(ops)
        return ops

    def prepare(self, mp, ops):
        pass

    def call(self, mp, op):
        d = op.data
        return mp.critical_points(mp.ArrangementData(d["B"], d["a"], d["x"]), d["z"])

    def check(self, op, result, memo) -> Outcome:
        import numpy as np

        d = op.data
        key = d["B"]
        if key not in memo:
            memo[key] = ref.euler_count(ref.RankOracle(d["B"]), 2)
        pts = np.asarray(result.points)
        digest = f"mu={len(pts)} finite={bool(np.all(np.isfinite(pts)))}"
        try:
            require(np.all(np.isfinite(pts)), "non-finite critical point")
            require(len(pts) == memo[key], f"{len(pts)} critical points, Euler count {memo[key]}")
            scale = 1.0 + max(abs(v) for v in d["z"])
            res = ref.gradient_residual(d["B"], d["a"], d["z"], pts)
            require(res <= 1e-8 * scale, f"gradient residual {res:.2e}")
            gaps = [np.max(np.abs(p - q)) for p, q in combinations(pts, 2)]
            require(not gaps or min(gaps) > 1e-6 * scale, "critical points coincide")
        except CheckFailed as exc:
            raise CheckFailed(f"{exc} ({digest})") from None
        return Outcome(digest, residual=res)


WORKLOADS = {w.name: w for w in (Equivalence(), Partition(), Potentials(), FibersK2())}


# ----------------------------------------------------------------- helpers


def _oracle(spec) -> ref.RankOracle:
    if spec["type"] == "uniform":
        l, n = spec["l"], spec["n"]
        rows = [tuple(Fraction(i) ** p for p in range(l)) for i in range(1, n + 1)]  # Vandermonde = U(l, n)
        return ref.RankOracle(rows)
    return ref.RankOracle([tuple(Fraction(v) for v in r) for r in spec["matrix"]])


def _bases(oracle: ref.RankOracle) -> list:
    k = oracle.full_rank
    return [S for S in combinations(range(1, oracle.n + 1), k) if oracle.rank(S) == k]


def _build_matroid(mp, spec):
    if spec["type"] == "uniform":
        return mp.UniformMatroid(spec["l"], spec["n"])
    return mp.LinearMatroid([[Fraction(v) for v in r] for r in spec["matrix"]])


def cli_inputs(seed: int) -> dict:
    """One input per CLI subcommand, taken from round 0 of the matching workload:
    {subcommand: (extra argv, input object)}."""
    eq = [op for op in WORKLOADS["equivalence"].generate(seed, 0) if op.key != "roadmap"]
    part = WORKLOADS["partition"].generate(seed, 0)
    pot = [op for op in WORKLOADS["potentials"].generate(seed, 0) if op.key != "item3"]

    def problem(op):
        rows = _rows_json(op.data["rows"])
        n = len(rows)
        ms = [{"type": "linear", "matrix": rows}] * op.data["copies"]
        if op.data["tail"]:
            ms.append({"type": "uniform", "l": op.data["tail"], "n": n})
        return {"ground": n, "matroids": ms}

    solve = min((op for op in part if op.kind == "solve"), key=lambda op: len(op.data["rows"]))
    amin = min((op for op in part if op.kind == "amin"), key=lambda op: len(op.data["rows"]))
    strong = next(op for op in part if op.kind == "strong")
    eq_op = min(eq, key=lambda op: sum(op.data["T"]))
    pot_op = min(pot, key=lambda op: (op.data["n_max"], len(op.data["B"])))
    arrangement = {
        "B": [list(r) for r in pot_op.data["B"]],
        "a": list(pot_op.data["a"]),
        "x": list(pot_op.data["x"]),
        "m": Potentials.M,
    }
    return {
        "matroid": (["rank"], {"matroid": {"type": "linear", "matrix": _rows_json(solve.data["rows"])},
                               "A": list(range(1, len(solve.data["rows"]) + 1))}),
        "partition": ([], problem(solve)),
        "amin": ([], problem(amin)),
        "equivalence": ([], {"matroid": eq_op.data["matroid"], "m": eq_op.data["m"], "T": list(eq_op.data["T"])}),
        "strong-decompose": ([], {"matroid": {"type": "linear", "matrix": _rows_json(strong.data["rows"])},
                                  "m": strong.data["m"], "l": strong.data["l"], "T": list(strong.data["T"])}),
        "potentials": ([], dict(arrangement, N_max=pot_op.data["n_max"])),
        "verify-arrangement": ([], arrangement),
    }
