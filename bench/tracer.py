"""Span tracing of matpot from the outside, for the per-layer metrics.

``install`` replaces each public layer function at every module binding it
is called through (``matpot.systems.solve_partition``,
``matpot.frobenius.multi_partial``, ``matpot.critical_points``, ...) and the
``is_independent``/``rank`` methods of each matroid class with a wrapper
that records a span: name, parent span, start and end.  Nothing under
``src/`` changes.  Spans stay in memory (compact arrays) and are written out
by ``save`` when the run ends.  A span's self time is its duration minus the
time its child spans cover; it is accumulated per name while tracing.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from time import perf_counter

# (module, attribute, span name); every binding of the same function object in
# any loaded matpot module is wrapped, so internal callers are traced too.
FUNCTIONS = [
    ("matpot.matroids", "rational_rank", "matroids.rational_rank"),
    ("matpot.partition", "solve_partition", "partition.solve_partition"),
    ("matpot.partition", "tight_sets", "partition.tight_sets"),
    ("matpot.partition", "min_tight_set", "partition.min_tight_set"),
    ("matpot.partition", "slack_elements", "partition.slack_elements"),
    ("matpot.systems", "find_strong_decomposition", "systems.find_strong_decomposition"),
    ("matpot.systems", "strong_deficiency_witness", "systems.strong_deficiency_witness"),
    ("matpot.systems", "all_good_decompositions", "systems.all_good_decompositions"),
    ("matpot.systems", "enumerate_strong_decompositions", "systems.enumerate_strong_decompositions"),
    ("matpot.systems", "locally_related", "systems.locally_related"),
    ("matpot.systems", "equivalence_report", "systems.equivalence_report"),
    ("matpot.systems", "descent_move", "systems.descent_move"),
    ("matpot.arrangements", "critical_points", "arrangements.critical_points"),
    ("matpot.arrangements", "continue_fiber", "arrangements.continue_fiber"),
    ("matpot.arrangements", "structure_from_arrangement", "arrangements.structure_from_arrangement"),
    ("matpot.frobenius", "pairing_with_unit", "frobenius.pairing_with_unit"),
    ("matpot.frobenius", "verify_axioms", "frobenius.verify_axioms"),
    ("matpot.frobenius", "first_kind_polynomial", "frobenius.first_kind_polynomial"),
    ("matpot.frobenius", "second_kind_truncation", "frobenius.second_kind_truncation"),
    ("matpot.frobenius", "check_first_kind", "frobenius.check_first_kind"),
    ("matpot.frobenius", "check_second_kind", "frobenius.check_second_kind"),
    ("matpot.findiff", "multi_partial", "findiff.multi_partial"),
]
# matroid oracle methods and the per-instance cache whose growth marks a miss
ORACLES = [("is_independent", "_indep_cache"), ("rank", "_rank_cache")]
# strong-decomposition entry points
STRONG = ("find_strong_decomposition", "strong_deficiency_witness")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.parent = array("l")
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counters = {"oracle_hits": 0, "witnesses": 0, "edges": 0}
        self._stack: list[list] = []

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self._ids[name]

    def wrap(self, fn, name: str, before=None, after=None):
        """``before(args)`` runs ahead of the call and its value is passed to
        ``after(args, token, result)``, which runs when the call returns."""
        nid = self.intern(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.start)
            self.parent.append(stack[-1][0] if stack else -1)
            self.name.append(nid)
            self.start.append(0.0)
            self.end.append(0.0)
            frame = [sid, 0.0]
            stack.append(frame)
            token = before(args) if before else None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                self.start[sid] = t0
                self.end[sid] = t1
                self.calls[nid] += 1
                self.self_s[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if after:
                after(args, token, result)
            return result

        return traced

    # ------------------------------------------------------------ install

    def install(self):
        modules = [m for name, m in sys.modules.items() if name == "matpot" or name.startswith("matpot.")]
        after = {
            "partition.solve_partition": self._count_witness,
            "systems.locally_related": self._count_edge,
        }
        for modname, attr, span in FUNCTIONS:
            original = getattr(sys.modules[modname], attr, None)
            if original is None:
                continue
            wrapper = self.wrap(original, span, after=after.get(span))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        matroids = sys.modules["matpot.matroids"]
        for cls in vars(matroids).values():
            if not (isinstance(cls, type) and issubclass(cls, matroids.Matroid)):
                continue
            for meth, cache in ORACLES:
                fn = vars(cls).get(meth)
                if fn is None:
                    continue
                if cache in getattr(getattr(fn, "__code__", None), "co_names", ()):
                    before, after_ = self._cache_size(cache), self._count_hit(cache)
                else:  # computed directly, never a cache hit
                    before = after_ = None
                setattr(cls, meth, self.wrap(fn, f"matroids.{meth}", before, after_))

    @staticmethod
    def _cache_size(cache):
        return lambda args: len(getattr(args[0], cache))

    def _count_hit(self, cache):
        def after(args, size, result):
            if len(getattr(args[0], cache)) == size:
                self.counters["oracle_hits"] += 1

        return after

    def _count_witness(self, args, token, result):
        if type(result).__name__ == "DeficiencyWitness":
            self.counters["witnesses"] += 1

    def _count_edge(self, args, token, result):
        if result is True:
            self.counters["edges"] += 1

    # ------------------------------------------------------------ metrics

    def _sum(self, field, *names):
        return sum(field[self._ids[n]] for n in names if n in self._ids)

    def _children_of(self, child: str, parent: str):
        """Ids of ``child`` spans whose parent span is a ``parent`` span."""
        if child not in self._ids or parent not in self._ids:
            return []
        c, p = self._ids[child], self._ids[parent]
        return [i for i, nm in enumerate(self.name) if nm == c and self.parent[i] >= 0 and self.name[self.parent[i]] == p]

    def _count_under(self, child: str, ancestor: str) -> int:
        if child not in self._ids or ancestor not in self._ids:
            return 0
        c, a = self._ids[child], self._ids[ancestor]
        count = 0
        for i, nm in enumerate(self.name):
            if nm != c:
                continue
            j = self.parent[i]
            while j >= 0 and self.name[j] != a:
                j = self.parent[j]
            count += j >= 0
        return count

    def metrics(self) -> dict:
        calls, self_s = self.calls, self.self_s
        oracle = self._sum(calls, "matroids.is_independent", "matroids.rank")
        solves = self._sum(calls, "partition.solve_partition")
        local = self._sum(calls, "systems.locally_related")
        fibers = self._sum(calls, "arrangements.critical_points")
        conts = self._sum(calls, "arrangements.continue_fiber")
        sk = "frobenius.second_kind_truncation"
        candidates = len(self._children_of("findiff.multi_partial", sk)) + len(
            self._children_of("frobenius.pairing_with_unit", sk)
        )
        sk_evals = self._count_under("frobenius.pairing_with_unit", sk)
        m = {
            "matroids.oracle_calls": oracle,
            "matroids.elim_calls": self._sum(calls, "matroids.rational_rank"),
            "matroids.hit_ratio": _ratio(self.counters["oracle_hits"], oracle),
            "matroids.self_s": self._sum(self_s, "matroids.is_independent", "matroids.rank", "matroids.rational_rank"),
            "partition.calls": solves,
            "partition.witness_ratio": _ratio(self.counters["witnesses"], solves),
            "partition.self_s": sum(self_s[i] for n, i in self._ids.items() if n.startswith("partition.")),
            "systems.strong_calls": self._sum(calls, *("systems." + a for a in STRONG)),
            "systems.strong_s": self._sum(self_s, *("systems." + a for a in STRONG)),
            "systems.good_enum_s": self._sum(self_s, "systems.all_good_decompositions"),
            "systems.local_calls": local,
            "systems.edge_ratio": _ratio(self.counters["edges"], local),
            "systems.local_s": self._sum(self_s, "systems.locally_related", "systems.enumerate_strong_decompositions"),
            "systems.descent_s": self._sum(self_s, "systems.descent_move"),
            "arrangements.fiber_solves": fibers,
            "arrangements.fiber_s": self._sum(self_s, "arrangements.critical_points"),
            "arrangements.continuations": conts,
            "arrangements.solves_per_continuation": _ratio(
                len(self._children_of("arrangements.critical_points", "arrangements.continue_fiber")), conts
            ),
            "arrangements.continuation_s": self._sum(self_s, "arrangements.continue_fiber"),
            "arrangements.structure_s": self._sum(self_s, "arrangements.structure_from_arrangement"),
            "frobenius.pairing_evals": self._sum(calls, "frobenius.pairing_with_unit"),
            "frobenius.pairing_s": self._sum(self_s, "frobenius.pairing_with_unit"),
            "frobenius.verify_s": self._sum(self_s, "frobenius.verify_axioms"),
            "frobenius.first_kind_s": self._sum(self_s, "frobenius.first_kind_polynomial"),
            "frobenius.second_kind_s": self._sum(self_s, sk),
            "frobenius.checks_s": self._sum(self_s, "frobenius.check_first_kind", "frobenius.check_second_kind"),
            "findiff.partial_calls": self._sum(calls, "findiff.multi_partial"),
            "findiff.evals_per_candidate": _ratio(sk_evals, candidates),
            "findiff.self_s": self._sum(self_s, "findiff.multi_partial"),
        }
        return m

    def span_summary(self) -> dict:
        return {n: {"calls": self.calls[i], "self_s": self.self_s[i]} for n, i in self._ids.items()}

    def save(self, path):
        """Write every span: a JSON header line, then the four arrays as raw
        machine values (parent int64, name uint16, start/end float64)."""
        with open(path, "wb") as fh:
            header = {"names": self.names, "count": len(self.start),
                      "arrays": ["parent:l", "name:H", "start:d", "end:d"]}
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.parent, self.name, self.start, self.end):
                arr.tofile(fh)


def _ratio(a, b) -> float:
    return a / b if b else 0.0
