"""aoisched benchmark: named CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload solve-3s --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. Every CLI command runs in a child
process (`python -m aoisched.cli`, the source tree on PYTHONPATH) with a
pinned environment, in a fresh output directory, and its outputs are
checked against `reference.json`. With `--trace 0` the workload's command
cycle is repeated until `--seconds` have passed (at least one whole cycle)
and the end-to-end metrics are medians over cycles. With `--trace 1` one
cycle runs through `tracer.py` and the per-layer metrics come from its
spans. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Exit code 2 means the
benchmark could not run at all (no result is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import tracer  # noqa: E402
from workloads import (  # noqa: E402
    EXACT_REPLICATIONS,
    HORIZON,
    MC_POLICIES,
    MC_REPLICATIONS,
    SKIPPED,
    WORKLOADS,
    mc_seed,
)

OUT = BENCH / "_out"
REQUIRED = ("src/aoisched/cli.py", "configs/threesensor.yaml", "configs/twosensor.yaml")
SETUP_REPEATS = 3
RUN_LIMIT_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
SETUP_CODE = """\
import sys
import aoisched.cli
aoisched.cli.load_config(sys.argv[1])
import json, platform, numpy, scipy, aoisched
print(json.dumps({"module": aoisched.__file__, "python": platform.python_version(),
                  "numpy": numpy.__version__, "scipy": scipy.__version__}))
"""


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def child_env(home: Path) -> dict:
    """The fixed environment of every child: nothing is inherited."""
    threads = "1"
    env = {
        "PATH": os.defpath,
        "HOME": str(home),
        "LANG": "C.UTF-8",
        "LC_ALL": "C.UTF-8",
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
        "PYTHONNOUSERSITE": "1",
    }
    env.update({v: threads for v in THREAD_VARS})
    return env


class Child:
    """A finished child process: wall time, peak RSS and captured output."""

    def __init__(self, argv, env, log: Path, deadline: float):
        log.parent.mkdir(parents=True, exist_ok=True)
        with open(log.with_suffix(".out"), "wb") as fo, open(log.with_suffix(".err"), "wb") as fe:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=fo, stderr=fe, env=env, cwd=ROOT)
            killer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
            killer.start()
            try:
                # wait4 gives this child's own peak RSS; RUSAGE_CHILDREN would
                # report the maximum over every child reaped so far.
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            self.wall_s = time.perf_counter() - t0
        proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.stdout = log.with_suffix(".out").read_text()
        self.stderr = log.with_suffix(".err").read_text()


def output_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def check_command(kind, child, out, config_sha, ref, seed) -> checks.Checks:
    if kind.startswith("solve_"):
        policy = kind[len("solve_"):]
        return checks.check_solve(policy, child.stdout, out, config_sha, ref["solve-3s"][policy])
    fn, ref_key, replications = {
        "compare": (checks.check_compare, "exact-3s", EXACT_REPLICATIONS),
        "simulate": (checks.check_simulate, "mc-2s", MC_REPLICATIONS),
        "probe": (checks.check_probe, "mc-2s", MC_REPLICATIONS),
    }[kind]
    return fn(child.stdout, out, config_sha, ref[ref_key], mc_seed(seed), replications, HORIZON)


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, work: Path, deadline: float):
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.env = child_env(work)
        self.ref = json.loads(checks.REFERENCE.read_text())
        self.config = self.workload.write_config(ROOT, work / "config.yaml", seed)
        self.config_sha = checks.sha256_file(self.config)
        self.attempted = 0
        self.failures = []
        self._n = 0

    def child(self, argv, tag: str) -> Child:
        self._n += 1
        return Child(argv, self.env, self.work / "logs" / f"{self._n:03d}-{tag}", self.deadline)

    def setup(self, repeats: int) -> tuple:
        """Setup wall times and the facts printed by the setup child."""
        argv = [sys.executable, "-c", SETUP_CODE, str(self.config)]
        walls, facts = [], None
        for _ in range(repeats):
            c = self.child(argv, "setup")
            if c.returncode != 0:
                raise BenchError(f"setup child failed: {c.stderr.strip()[-500:]}")
            facts = json.loads(c.stdout.strip().splitlines()[-1])
            walls.append(c.wall_s)
        module = Path(facts["module"]).resolve()
        if ROOT / "src" not in module.parents:
            raise BenchError(f"aoisched imported from {module}, not from {ROOT / 'src'}")
        return walls, facts

    def cycle(self, index: int, traced: bool) -> list:
        """Run the workload's commands once; one record per command."""
        records = []
        for cmd in self.workload.commands:
            out = self.work / f"c{index}-{cmd.kind}{'-traced' if traced else ''}"
            spans = out.with_suffix(".spans.json")
            cli_args = cmd.argv(self.config, out, mc_seed(self.seed))
            if traced:
                argv = [sys.executable, str(BENCH / "tracer.py"), str(spans), *cli_args]
            else:
                argv = [sys.executable, "-m", "aoisched.cli", *cli_args]
            c = self.child(argv, cmd.kind)
            rec = {
                "metric": cmd.metric,
                "kind": cmd.kind,
                "wall_s": c.wall_s,
                "cpu_s": c.cpu_s,
                "peak_rss_mb": c.peak_rss_mb,
                "returncode": c.returncode,
            }
            self.attempted += 1
            if c.returncode != 0:
                self.failures.append((f"{cmd.kind}.exit", c.stderr.strip()[-500:]))
            else:
                chk = check_command(cmd.kind, c, out, self.config_sha, self.ref, self.seed)
                self.attempted += len(chk.results)
                self.failures.extend((name, detail) for name, _, detail in chk.failed)
                rec["csv_bytes"] = output_bytes(out)
            if traced and spans.is_file():
                rec["spans"] = json.loads(spans.read_text())
            shutil.rmtree(out, ignore_errors=True)
            records.append(rec)
        return records


def end_to_end(cycles: list, setup_walls: list) -> tuple:
    """(metrics named in BENCHMARK.json, further per-command metrics)."""
    main = {
        "setup_s": (statistics.median(setup_walls), "s"),
        "wall_s": (statistics.median([sum(r["wall_s"] for r in c) for c in cycles]), "s"),
        "peak_rss_mb": (statistics.median([max(r["peak_rss_mb"] for r in c) for c in cycles]), "MiB"),
    }
    extra = {"cpu_s": (statistics.median([sum(r["cpu_s"] for r in c) for c in cycles]), "s")}
    for i, rec in enumerate(cycles[0]):
        walls = [c[i]["wall_s"] for c in cycles]
        extra[rec["metric"]] = (statistics.median(walls), "s")
        if rec["kind"] == "simulate":
            slots = len(MC_POLICIES.split(",")) * MC_REPLICATIONS * HORIZON
            extra["mc_slots_per_s"] = (statistics.median([slots / w for w in walls]), "1/s")
    return main, extra


def trace_overhead(spans: dict) -> float:
    """Estimated cost of tracing one command: calibrated per-span cost times
    spans entered, plus the tracer's own set-up and derived-count spans."""
    c = spans.get("counts", {})
    derived = spans.get("functions", {}).get("trace.derived", {}).get("total_s", 0.0)
    return c.get("spans_entered", 0) * c.get("span_cost_s", 0.0) + c.get("tracer_setup_s", 0.0) + derived


def per_layer(traced: list) -> dict:
    funcs, counts = {}, {}
    for rec in traced:
        spans = rec.get("spans", {})
        for name, f in spans.get("functions", {}).items():
            acc = funcs.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += f[k]
        c = spans.get("counts", {})
        for key in ("kernel_nnz", "kernel_bytes", "stationary_states", "pruned_copied",
                    "pruned_states", "slots"):
            counts[key] = counts.get(key, 0) + c.get(key, 0)
        for key in ("n_states", "stationary_residual_max"):
            counts[key] = max(counts.get(key, 0), c.get(key, 0))
        rvi_n = c.get("rvi_n", 0)
        if rvi_n > counts.get("rvi_n", 0):
            counts.update(rvi_n=rvi_n, rvi_iterations=0, rvi_seconds=0.0)
        if rvi_n and rvi_n >= counts.get("rvi_n", 0):
            counts["rvi_iterations"] += c["rvi_iterations"]
            counts["rvi_seconds"] += c["rvi_seconds"]

    metrics = {}
    for name in tracer.SPAN_NAMES:
        f = funcs.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        metrics[f"{name}.calls"] = (f["calls"], "count")
        metrics[f"{name}.total_s"] = (f["total_s"], "s")
        metrics[f"{name}.self_s"] = (f["self_s"], "s")

    def ratio(a, b):
        return a / b if b else 0.0

    episode_s = funcs.get("sim.run_episode", {}).get("total_s", 0.0)
    metrics.update({
        "mdp.n_states": (counts.get("n_states", 0), "count"),
        "mdp.kernel_nnz": (counts.get("kernel_nnz", 0), "count"),
        "mdp.kernel_bytes": (counts.get("kernel_bytes", 0), "bytes"),
        "mdp.rvi_iterations": (counts.get("rvi_iterations", 0), "count"),
        "mdp.rvi_backup_ms": (
            1000 * ratio(counts.get("rvi_seconds", 0.0), counts.get("rvi_iterations", 0)), "ms"),
        "mdp.stationary_states": (counts.get("stationary_states", 0), "count"),
        "mdp.stationary_residual_max": (counts.get("stationary_residual_max", 0.0), "l1"),
        "decomposed.pruned_ratio": (
            ratio(counts.get("pruned_copied", 0), counts.get("pruned_states", 0)), "ratio"),
        "sim.slots": (counts.get("slots", 0), "count"),
        "sim.slots_per_s": (ratio(counts.get("slots", 0), episode_s), "1/s"),
        "cli.csv_bytes": (sum(r.get("csv_bytes", 0) for r in traced), "bytes"),
        "trace.overhead_s": (sum(trace_overhead(r.get("spans", {})) for r in traced), "s"),
    })
    return metrics


def machine_facts(setup_facts: dict, env: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": setup_facts["python"],
        "numpy": setup_facts["numpy"],
        "scipy": setup_facts["scipy"],
        "thread_env": {v: env[v] for v in THREAD_VARS},
    }


def run(args) -> dict:
    started = time.monotonic()
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing or not checks.REFERENCE.is_file():
        raise BenchError(f"not a source checkout: missing {missing or [checks.REFERENCE.name]}")
    work = OUT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    r = Run(args.workload, args.seed, work, started + RUN_LIMIT_S)
    try:
        setup_walls, facts = r.setup(1 if args.trace else SETUP_REPEATS)
        if args.trace:
            cycles = [r.cycle(0, traced=True)]
            metrics, extra = per_layer(cycles[0]), {}
        else:
            cycles = []
            measure_start = time.monotonic()
            while True:
                t0 = time.monotonic()
                cycles.append(r.cycle(len(cycles), traced=False))
                now = time.monotonic()
                if now - measure_start >= args.seconds or now + 1.5 * (now - t0) > r.deadline:
                    break
            metrics, extra = end_to_end(cycles, setup_walls)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(r.failures)
    extra["fail_ratio"] = (failed / r.attempted, "ratio")
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine_facts(facts, r.env),
        "skipped": SKIPPED,
        "cycles": len(cycles),
        "commands": [[{k: v for k, v in rec.items() if k != "spans"} for rec in c] for c in cycles],
        "failures": r.failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extra_metrics": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "attempted": r.attempted,
        "failed": failed,
    }
    if args.trace:
        result["spans"] = {rec["kind"]: rec.get("spans", {}).get("spans", []) for rec in cycles[0]}
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    for failure in result["failures"]:
        print(f"FAILED {failure[0]}: {failure[1]}")
    for scope, ms in (("metrics", result["metrics"]), ("extra", result["extra_metrics"])):
        for key, m in ms.items():
            print(f"{args.workload} {key} = {m['value']:.6g} {m['unit']} ({scope})")
    for case, reason in SKIPPED.items():
        print(f"skipped {case}: {reason}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
