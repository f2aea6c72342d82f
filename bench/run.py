"""matpot benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds ``src/matpot``.  Every
workload runs in fresh worker processes (``worker.py``) with BLAS threads
pinned to 1.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``: set-up time is the median over several set-up-only
processes plus the timed one.  ``--trace 1`` reports the per-layer metrics:
round 0 once untraced and once traced (the ratio is the tracing overhead),
plus one subprocess per CLI subcommand.  The second-to-last stdout line is a
report with the workload's rationale, op mix and failures; the last line is
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 4
DEADLINE_S = 170.0
PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
CLI_IMPORT = "import time; t = time.perf_counter(); import matpot.cli; print(time.perf_counter() - t)"


class BenchError(Exception):
    pass


class Runner:
    def __init__(self):
        self.start = perf_counter()
        self.env = dict(os.environ, **PINNED)
        self.env["PYTHONPATH"] = os.path.join(ROOT, "src")

    def remaining(self) -> float:
        left = DEADLINE_S - (perf_counter() - self.start)
        if left <= 1:
            raise BenchError("out of time")
        return left

    def run(self, argv, stdin=None):
        try:
            return subprocess.run(
                argv, input=stdin, capture_output=True, text=True, env=self.env,
                cwd=ROOT, timeout=self.remaining(),
            )
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
            raise BenchError(f"timed out: {' '.join(argv[:4])}") from exc

    def worker(self, workload, seed, seconds, mode) -> dict:
        proc = self.run([sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), str(seconds), mode])
        if proc.returncode != 0:
            raise BenchError(f"worker {mode} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def cli(self, seed) -> tuple[dict, dict]:
        import workloads

        proc = self.run([sys.executable, "-c", CLI_IMPORT])
        if proc.returncode != 0:
            raise BenchError(f"import matpot.cli failed: {proc.stderr.strip()[-2000:]}")
        times = {"cli.import_s": float(proc.stdout.strip().splitlines()[-1])}
        exits = {}
        for sub, (extra, obj) in workloads.cli_inputs(seed).items():
            t0 = perf_counter()
            proc = self.run([sys.executable, "-m", "matpot.cli", sub, *extra], json.dumps(obj))
            times[f"cli.{sub}_s"] = perf_counter() - t0
            exits[sub] = proc.returncode
        times["cli.nonzero_exits"] = sum(code != 0 for code in exits.values())
        return times, exits


def untraced(r: Runner, args):
    setups = [r.worker(args.workload, args.seed, args.seconds, "setup")["setup_s"] for _ in range(SETUP_PROBES)]
    res = r.worker(args.workload, args.seed, args.seconds, "timed")
    setups.append(res["setup_s"])
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": res["ops_per_s"],
        "op_p50_s": res["op_p50_s"],
        "op_tail_s": res["op_tail_s"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    report = {
        "setup_samples_s": setups,
        "slowdown": res["slowdown"],
        "raw": res["raw"],
        "tail_percentile": res["tail_percentile"],
        "samples": res["samples"],
        "inputs": res["inputs"],
        "rounds": res["rounds"],
        "inconsistent": res["inconsistent"],
    }
    for key in ("failed_ratio", "spread_log10", "residual_log10", "strong_hit_ratio", "round0_failures", "op_mix"):
        report[key] = res[key]
    correct = not res["inconsistent"]
    return correct, res["attempted"], res["failed"], metrics, report


def traced(r: Runner, args):
    plain = r.worker(args.workload, args.seed, args.seconds, "round")
    spans = r.worker(args.workload, args.seed, args.seconds, "traced")
    cli_times, exits = r.cli(args.seed)
    metrics = dict(spans["layers"])
    for key in ("failed_ratio", "spread_log10", "residual_log10"):
        metrics[key] = spans[key]
    metrics["trace.ops_per_s_untraced"] = plain["round0_ops"] / plain["round0_s"]
    metrics["trace.ops_per_s_traced"] = spans["round0_ops"] / spans["round0_s"]
    metrics["trace.overhead_ratio"] = spans["round0_s"] / plain["round0_s"]
    metrics.update(cli_times)
    same = all(plain[k] == spans[k] for k in ("failed_ratio", "spread_log10", "residual_log10", "round0_failures"))
    report = {
        "cli_exit_codes": exits,
        "spans": spans["spans"],
        "traced_equals_untraced": same,
        "inconsistent": plain["inconsistent"] + spans["inconsistent"],
        "strong_hit_ratio": spans["strong_hit_ratio"],
        "round0_failures": spans["round0_failures"],
        "op_mix": spans["op_mix"],
    }
    correct = same and not report["inconsistent"]
    return correct, spans["attempted"], spans["failed"], metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "matpot", "__init__.py")):
            raise BenchError(f"no matpot sources under {os.path.join(ROOT, 'src')}")
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        workloads = {w["name"]: w["why"] for w in spec["workloads"]}
        if args.workload not in workloads:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {sorted(workloads)}")
        r = Runner()
        correct, attempted, failed, values, report = (traced if args.trace else untraced)(r, args)
        wanted = spec["per_layer" if args.trace else "end_to_end"]
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            raise BenchError(f"metrics not produced: {missing}")
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    report = dict(
        workload=args.workload, seed=args.seed, trace=args.trace, why=workloads[args.workload],
        loop="closed", clients=1, wall_s=perf_counter() - r.start, **report,
    )
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"report-{args.workload}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(report, metrics=metrics), fh, indent=1)
    print(json.dumps({"report": {k: v for k, v in report.items() if k != "spans"}}))
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
