"""Self-tests of the benchmark itself. From the repository root:

    python -m pytest perfbench/tests -q

The exact-3s span test runs one traced `compare` (about 30 s).
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_self_time_of_nested_spans():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 6.5, 10.0])
    t = tracer.Tracer(clock=lambda: next(ticks))
    t.enter("outer")
    t.enter("inner")
    t.exit()
    t.enter("inner")
    t.exit()
    t.exit()
    assert t.calls == {"outer": 1, "inner": 2}
    assert t.total["outer"] == 10.0
    assert t.self_time["outer"] == 10.0 - 2.0 - 2.5
    assert t.total["inner"] == t.self_time["inner"] == 4.5
    outer_id = next(s[0] for s in t.spans if s[1] == "outer")
    assert [s[4] for s in t.spans if s[1] == "inner"] == [outer_id, outer_id]


def test_generator_is_timed_over_its_iteration():
    t = tracer.Tracer(clock=itertools.count().__next__)

    def rows(n):
        yield from range(n)

    gen = t.wrap("gen", rows)
    consume = t.wrap("consume", lambda g: list(g))
    assert consume(gen(3)) == [0, 1, 2]
    # Three items plus the final StopIteration: four spans of one tick each.
    assert t.calls["gen"] == 1
    assert t.total["gen"] == 4
    assert t.self_time["consume"] == t.total["consume"] - 4


def _traced_cli(tmp_path: Path, *cli_args) -> dict:
    spans = tmp_path / "spans.json"
    argv = [sys.executable, str(BENCH / "tracer.py"), str(spans), *map(str, cli_args)]
    proc = subprocess.run(
        argv, cwd=ROOT, env=run.child_env(tmp_path), capture_output=True, text=True, timeout=170
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(spans.read_text())


def test_spans_see_calls_through_from_imports(tmp_path):
    config = workloads.WORKLOADS["exact-3s"].write_config(ROOT, tmp_path / "c.yaml", 0)
    report = _traced_cli(
        tmp_path, "compare", "--config", config, "--policies", workloads.COMPARE_POLICIES,
        "--replications", 2, "--horizon", 10, "--out", tmp_path / "out",
    )
    funcs = report["functions"]
    # Joint kernels twice (optimal solve, compare) and one per sensor for
    # SISP, the latter through decomposed's `from .mdp import build_kernels`.
    assert funcs["mdp.build_kernels"]["calls"] == 5
    assert funcs["mdp.stationary_distribution"]["calls"] == 8
    assert funcs["dynamics.step_system_traced"]["calls"] == 8 * 2 * 10
    assert report["counts"]["stationary_residual_max"] < 1e-9
    assert report["counts"]["n_states"] == 19_200


def test_exact_3s_config_is_deterministic_with_19200_states(tmp_path):
    from aoisched import cli, mdp

    w = workloads.WORKLOADS["exact-3s"]
    a = w.write_config(ROOT, tmp_path / "a.yaml", 5).read_bytes()
    b = w.write_config(ROOT, tmp_path / "b.yaml", 5).read_bytes()
    assert a == b
    cfg = cli.load_config(tmp_path / "a.yaml")
    assert mdp.StateSpace(cfg.system).n_states == 19_200
    assert cfg.system.m_budget == 2
    assert cfg.seed == 5


def _write_csv(path: Path, sha: str, header: list, rows: list) -> None:
    lines = [f"# config_sha256={sha}", ",".join(header)]
    lines += [",".join(map(str, r)) for r in rows]
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def solved(tmp_path):
    """A small optimal-policy output and the reference recorded from it."""
    header = ["state_index", "aori_1", "theta", "value", "action_bits"]
    rows = [[i, i // 2 + 1, i % 2, 1.5 * i, "1" if i % 3 else "0"] for i in range(200)]
    _write_csv(tmp_path / "optimal_table.csv", "abc", header, rows)
    _write_csv(tmp_path / "optimal_summary.csv", "abc",
               ["policy", "states", "gain", "iterations", "wall_time_s"],
               [["optimal", 200, 3.25, 10, 0.1]])
    digest = checks.table_digest(tmp_path / "optimal_table.csv")
    ref = {"gain": "3.25", "states": 200,
           "action_bits_sha256": digest["action_bits_sha256"], "values": digest["values"]}
    return tmp_path, header, rows, ref


def test_solve_check_passes_and_rejects_gain_and_action_bits(solved):
    out, header, rows, ref = solved
    stdout = "optimal: 200 states, gain 3.25, 0.10s\n"
    assert not checks.check_solve("optimal", stdout, out, "abc", ref).failed

    bad_gain = checks.check_solve("optimal", stdout.replace("3.25", "3.2500001"), out, "abc", ref)
    assert [r[0] for r in bad_gain.failed] == ["solve_optimal.gain"]

    rows[7][-1] = "0" if rows[7][-1] == "1" else "1"
    _write_csv(out / "optimal_table.csv", "abc", header, rows)
    flipped = checks.check_solve("optimal", stdout, out, "abc", ref)
    assert [r[0] for r in flipped.failed] == ["solve_optimal.action_bits"]


def test_solve_check_rejects_changed_values(solved):
    out, header, rows, ref = solved
    rows[0][3] = 1e-3  # row 0 is sampled
    _write_csv(out / "optimal_table.csv", "abc", header, rows)
    stdout = "optimal: 200 states, gain 3.25, 0.10s\n"
    failed = checks.check_solve("optimal", stdout, out, "abc", ref).failed
    assert [r[0] for r in failed] == ["solve_optimal.values"]


COMPARE_HEADER = ["policy", "exact_cost", "mc_mean", "mc_sd", "mc_ci95",
                  "replications", "horizon", "seed"]


def _compare(tmp_path, exact: dict, shift: float = 0.0):
    rows = [[p, v, v + shift, 0.5, 0.2, 20, 1000, 3] for p, v in exact.items()]
    _write_csv(tmp_path / "compare.csv", "abc", COMPARE_HEADER, rows)
    stdout = "\n".join(f"{p}: ..." for p in exact) + "\n"
    return checks.check_compare(stdout, tmp_path, "abc", {"exact_cost": REF_EXACT}, 3, 20, 1000)


REF_EXACT = {"optimal": 10.0, "sisp": 10.5, "idle": 30.0}


def test_compare_check_rejects_perturbed_cost_and_nonminimal_optimal(tmp_path):
    assert not _compare(tmp_path, REF_EXACT).failed
    perturbed = _compare(tmp_path, {**REF_EXACT, "sisp": 10.5001})
    assert [r[0] for r in perturbed.failed] == ["compare.exact.sisp"]
    swapped = _compare(tmp_path, {**REF_EXACT, "optimal": 10.6})
    names = [r[0] for r in swapped.failed]
    assert "compare.optimal_is_minimal" in names


def test_compare_check_rejects_mc_mean_outside_tolerance(tmp_path):
    # tol = 3 * 0.2 + 10 / 1000 * exact
    assert not _compare(tmp_path, REF_EXACT, shift=0.65).failed
    far = _compare(tmp_path, REF_EXACT, shift=1.0)
    assert "compare.mc_vs_exact.optimal" in [r[0] for r in far.failed]


def test_probe_check_rejects_mean_outside_tolerance(tmp_path):
    ref = {"probe_exact_cost": {"7": 10.0, "10": 10.3}}
    header = ["cap", "mean_cost", "sd", "ci95", "replications", "horizon", "seed"]

    def probe(mean10):
        rows = [[7, 9.95, 0.2, 0.1, 20, 1000, 3], [10, mean10, 0.2, 0.1, 20, 1000, 3]]
        _write_csv(tmp_path / "divergence.csv", "abc", header, rows)
        return checks.check_probe("a\nb\n", tmp_path, "abc", ref, 3, 20, 1000)

    assert not probe(10.25).failed
    assert [r[0] for r in probe(11.0).failed] == ["probe.mc_vs_exact.cap10"]


def test_benchmark_json_lists_the_metrics_run_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in bench["per_layer"]] == list(run.per_layer([]))
    cycle = [{"metric": "x_s", "kind": "x", "wall_s": 1.0, "cpu_s": 1.0, "peak_rss_mb": 1.0}]
    reported, _ = run.end_to_end([cycle], [0.5])
    assert sorted(m["name"] for m in bench["end_to_end"]) == sorted(reported)
