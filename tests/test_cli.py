import csv
import io
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from aoisched import cli
from aoisched.policies import POLICY_NAMES


TWO_SENSOR_YAML = textwrap.dedent(
    """
    channel:
      kappa00: 0.5
      kappa11: 0.8
    budget: 1
    truncation:
      max_aori: 7
      max_aoli: 7
    sensors:
      - arrival: {kind: bernoulli, rate: 0.9}
        penalty:
          kind: estimation_trace
          a: [[1.1, 0.5], [0.0, 0.2]]
          sigma_w: [[1.0, 0.0], [0.0, 1.0]]
          c: [[1.0, 1.0]]
          r_meas: [[0.8]]
        p0: 0.5
        p1: 1.0
      - arrival: {kind: bernoulli, rate: 0.5}
        penalty:
          kind: estimation_trace
          a: [[1.1, 0.5], [0.0, 0.2]]
          sigma_w: [[1.0, 0.0], [0.0, 1.0]]
          c: [[1.0, 1.0]]
          r_meas: [[0.8]]
        p0: 0.5
        p1: 1.0
    simulation:
      horizon: 200
      replications: 5
      seed: 42
    output:
      dir: {OUT}
    """
)

ONE_SENSOR_YAML = textwrap.dedent(
    """
    channel: {kappa00: 0.5, kappa11: 0.8}
    budget: 1
    truncation: {max_aori: 3}
    sensors:
      - arrival: {kind: bernoulli, rate: 0.7}
        penalty: {kind: exponential, r: 0.5}
        p0: 0.4
        p1: 0.9
    simulation: {horizon: 100, replications: 3, seed: 1}
    output: {dir: OUTDIR}
    """
)


def write_config(tmp_path, text, name="cfg.yaml"):
    out = tmp_path / "out"
    path = tmp_path / name
    path.write_text(text.replace("{OUT}", str(out)).replace("OUTDIR", str(out)))
    return path, out


def read_lines(path):
    return path.read_text().splitlines()


def test_solve_optimal_writes_full_table(tmp_path):
    cfg, out = write_config(tmp_path, TWO_SENSOR_YAML)
    assert cli.main(["solve", "--config", str(cfg), "--policy", "optimal"]) == 0
    table = read_lines(out / "optimal_table.csv")
    assert table[0].startswith("# config_sha256=")
    assert table[1] == "state_index,aoli_1,aoli_2,aori_1,aori_2,theta,value,action_bits"
    assert len(table) == 2 + 2 * (8 * 7) ** 2  # comment + header + 6272 states
    summary = read_lines(out / "optimal_summary.csv")
    assert summary[1].split(",")[0] == "policy"
    gain = float(summary[2].split(",")[2])
    assert gain > 0


def test_solve_one_sensor_smoke(tmp_path):
    cfg, out = write_config(tmp_path, ONE_SENSOR_YAML)
    assert cli.main(["solve", "--config", str(cfg), "--policy", "optimal"]) == 0
    assert cli.main(["solve", "--config", str(cfg), "--policy", "sisp"]) == 0
    assert cli.main(["solve", "--config", str(cfg), "--policy", "myopic"]) == 0
    assert (out / "sisp_table.csv").exists()
    assert (out / "myopic_table.csv").exists()


def test_malformed_probability_names_key(tmp_path, capsys):
    bad = TWO_SENSOR_YAML.replace("rate: 0.9", "rate: 1.2")
    cfg, _ = write_config(tmp_path, bad)
    assert cli.main(["solve", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "sensors[0].arrival.rate" in err


@pytest.mark.parametrize(
    "old, new, key",
    [
        ("rate: 0.9", "rate: no", "sensors[0].arrival.rate"),
        ("p0: 0.5", "p0: yes", "sensors[0].p0"),
        ("p1: 1.0", "p1: true", "sensors[0].p1"),
        ("kappa11: 0.8", "kappa11: on", "channel.kappa11"),
        ("r: 0.5", "r: true", "sensors[0].penalty.r"),
        ("r: 0.5", "r: [0.5]", "sensors[0].penalty.r"),
        ("a: [[1.1, 0.5]", "a: [[yes, 0.5]", "sensors[0].penalty.a[0][0]"),
        ("sigma_w: [[1.0, 0.0], [0.0, 1.0]]", "sigma_w: [[1.0, 0.0], [0.0, true]]",
         "sensors[0].penalty.sigma_w[1][1]"),
        ("c: [[1.0, 1.0]]\n      r_meas: [[0.8]]", "p_bar: [[1.0, no], [0.0, 1.0]]",
         "sensors[0].penalty.p_bar[0][1]"),
    ],
)
def test_boolean_is_not_a_number(tmp_path, capsys, old, new, key):
    """YAML reads yes, no, on and true as booleans, which float() would
    take as 1.0 or 0.0: a number key, or a matrix cell, refuses them, and
    names itself."""
    text = ONE_SENSOR_YAML if "r: 0.5" in old else TWO_SENSOR_YAML
    bad = text.replace(old, new, 1)
    assert bad != text
    cfg, out = write_config(tmp_path, bad)
    assert cli.main(["solve", "--config", str(cfg), "--policy", "sisp"]) == 2
    assert f"config error: {key}: expected a number, got" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_key_rejected(tmp_path, capsys):
    bad = TWO_SENSOR_YAML.replace("budget: 1", "budget: 1\nbandwidth: 3")
    cfg, _ = write_config(tmp_path, bad)
    assert cli.main(["solve", "--config", str(cfg)]) == 2
    assert "bandwidth" in capsys.readouterr().err


def test_state_budget_cap(tmp_path, capsys):
    capped = TWO_SENSOR_YAML.replace(
        "truncation:\n  max_aori: 7\n  max_aoli: 7",
        "truncation:\n  max_aori: 7\n  max_aoli: 7\n  max_states: 100",
    )
    cfg, _ = write_config(tmp_path, capped)
    assert cli.main(["solve", "--config", str(cfg)]) == 2
    assert "state space too large" in capsys.readouterr().err


def _myopic_over_budget(tmp_path):
    # the myopic model's own space has 2 * 7^2 = 98 states
    capped = TWO_SENSOR_YAML.replace(
        "truncation:\n  max_aori: 7\n  max_aoli: 7",
        "truncation:\n  max_aori: 7\n  max_aoli: 7\n  max_states: 50",
    )
    return write_config(tmp_path, capped)


def test_solve_myopic_checks_state_budget(tmp_path, capsys):
    cfg, out = _myopic_over_budget(tmp_path)
    assert cli.main(["solve", "--config", str(cfg), "--policy", "myopic"]) == 2
    err = capsys.readouterr().err
    assert "state space too large" in err and "98 states > max_states 50" in err
    assert not out.exists()


def test_simulate_myopic_checks_state_budget(tmp_path, capsys):
    cfg, out = _myopic_over_budget(tmp_path)
    code = cli.main(["simulate", "--config", str(cfg), "--policies", "myopic",
                     "--replications", "2", "--horizon", "50"])
    assert code == 2
    assert "98 states > max_states 50" in capsys.readouterr().err
    assert not out.exists()


def test_state_budget_refuses_count_beyond_int64(tmp_path, capsys):
    # 2 * (1501 * 1500)^3 states: an int64 product wraps to a negative count
    shipped = (Path(__file__).parents[1] / "configs" / "threesensor.yaml").read_text()
    huge = shipped.replace("max_aori: 7\n  max_aoli: 7", "max_aori: 1500\n  max_aoli: 1500")
    assert huge != shipped
    cfg, out = write_config(tmp_path, huge)
    assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
    assert "state space too large" in capsys.readouterr().err


def test_simulate_caps_checks_state_budget(tmp_path, capsys):
    capped = TWO_SENSOR_YAML.replace(
        "truncation:\n  max_aori: 7\n  max_aoli: 7",
        "truncation:\n  max_aori: 7\n  max_aoli: 7\n  max_states: 1000",
    )
    cfg, out = write_config(tmp_path, capped)
    # per-sensor kernels: cap 3 fits (24^2 = 576 <= 1000 entries), cap 7
    # does not (112^2 = 12,544 > 1000)
    code = cli.main(["simulate", "--config", str(cfg), "--caps", "3,7",
                     "--replications", "2", "--horizon", "50"])
    assert code == 2
    assert "state space too large" in capsys.readouterr().err
    assert not (out / "divergence.csv").exists()


def test_thresholds_checks_sensor_budget(tmp_path, capsys):
    capped = TWO_SENSOR_YAML.replace(
        "truncation:\n  max_aori: 7\n  max_aoli: 7",
        "truncation:\n  max_aori: 7\n  max_aoli: 7\n  max_states: 1000",
    )
    cfg, out = write_config(tmp_path, capped)
    assert cli.main(["thresholds", "--config", str(cfg)]) == 2
    assert "state space too large" in capsys.readouterr().err
    assert not (out / "thresholds.csv").exists()


def test_simulate_caps_beyond_joint_budget(tmp_path):
    # cap 10 has 2,662,000 joint states, over the default max_states, but
    # the probe solves and decides per sensor (420 states at cap 14)
    cfg = Path(__file__).parents[1] / "configs" / "threesensor.yaml"
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--caps", "10,14", "--horizon", "200",
                     "--replications", "4", "--out", str(out)]) == 0
    rows = read_lines(out / "divergence.csv")[2:]
    assert [row.split(",")[0] for row in rows] == ["10", "14"]


def test_simulate_reproducible_and_traced(tmp_path):
    cfg, out = write_config(tmp_path, TWO_SENSOR_YAML)
    args = ["simulate", "--config", str(cfg), "--policies", "sisp,maf,rr,rand",
            "--seed", "42", "--trace"]
    assert cli.main(args) == 0
    results_first = (out / "results.csv").read_bytes()
    traces_first = {
        name: (out / f"trajectory_{name}.csv").read_bytes()
        for name in ("sisp", "maf", "rr", "rand")
    }
    assert len(read_lines(out / "results.csv")) == 2 + 4
    assert len(read_lines(out / "trajectory_sisp.csv")) == 2 + 200 * 2

    assert cli.main(args) == 0
    assert (out / "results.csv").read_bytes() == results_first
    for name, blob in traces_first.items():
        assert (out / f"trajectory_{name}.csv").read_bytes() == blob


def test_stability_point_mode(tmp_path, capsys):
    cfg, out = write_config(tmp_path, TWO_SENSOR_YAML)
    assert cli.main(["stability", "--config", str(cfg)]) == 0
    lines = read_lines(out / "stability.csv")
    assert len(lines) == 2 + 2
    assert "stable" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flag, value",
    [("--lambda-hat", "0.9"), ("--rho-a", "1.1"), ("--exp-r", "0.5"), ("--resolution", "11")],
)
def test_stability_point_mode_refuses_region_flags(tmp_path, capsys, flag, value):
    cfg, out = write_config(tmp_path, TWO_SENSOR_YAML)
    assert cli.main(["stability", "--config", str(cfg), flag, value]) == 2
    assert f"config error: {flag}: only --region reads it" in capsys.readouterr().err
    assert not out.exists()


def test_stability_region_mode(tmp_path):
    out = tmp_path / "region_out"
    code = cli.main(
        [
            "stability", "--region", "--kappa00", "0.4", "--kappa11", "0.7",
            "--lambda-hat", "0.9", "--rho-a", "1.1",
            "--resolution", "11", "--out", str(out),
        ]
    )
    assert code == 0
    lines = read_lines(out / "region.csv")
    assert lines[1] == "p0,p1,rho,bound,feasible"
    assert len(lines) == 2 + 11 * 11


def test_stability_region_needs_bound(capsys):
    code = cli.main(
        ["stability", "--region", "--kappa00", "0.4", "--kappa11", "0.7",
         "--lambda-hat", "0.9"]
    )
    assert code == 2
    assert "bound" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--resolution", "1"),
        ("--rho-a", "0"),
        ("--kappa00", "1.5"),
        ("--exp-r", "-1"),
        ("--lambda-hat", "1.7"),
    ],
)
def test_stability_flags_checked_like_config_values(tmp_path, capsys, flag, value):
    flags = {"--kappa00": "0.4", "--kappa11": "0.7", "--lambda-hat": "0.9",
             "--rho-a": "1.1", "--resolution": "11"}
    if flag == "--exp-r":
        del flags["--rho-a"]
    flags[flag] = value
    out = tmp_path / "out"
    args = ["stability", "--region", "--out", str(out)]
    assert cli.main(args + [item for pair in flags.items() for item in pair]) == 2
    assert f"config error: {flag}:" in capsys.readouterr().err
    assert not out.exists()


def test_thresholds_smoke(tmp_path):
    cfg, out = write_config(tmp_path, TWO_SENSOR_YAML)
    assert cli.main(["thresholds", "--config", str(cfg)]) == 0
    lines = read_lines(out / "thresholds.csv")
    assert lines[1] == "sensor,theta,threshold_aori"
    assert len(lines) == 2 + 4


def test_compare_smoke(tmp_path):
    cfg, out = write_config(tmp_path, ONE_SENSOR_YAML)
    code = cli.main(
        ["compare", "--config", str(cfg), "--policies", "optimal,sisp,maf,rr,rand,idle",
         "--replications", "3"]
    )
    assert code == 0
    lines = read_lines(out / "compare.csv")
    assert len(lines) == 2 + 6
    header = lines[1].split(",")
    assert header[:3] == ["policy", "exact_cost", "mc_mean"]
    # idle saturates the single sensor at its cap
    idle_row = [l for l in lines if l.startswith("idle")][0]
    import math
    assert float(idle_row.split(",")[1]) == pytest.approx(math.expm1(0.5 * 3), rel=1e-9)


def test_simulate_caps_runs_divergence_probe(tmp_path):
    cfg, out = write_config(tmp_path, ONE_SENSOR_YAML)
    code = cli.main(
        ["simulate", "--config", str(cfg), "--caps", "3,5",
         "--replications", "4", "--horizon", "150"]
    )
    assert code == 0
    lines = read_lines(out / "divergence.csv")
    assert lines[1] == "cap,mean_cost,sd,ci95,replications,horizon,seed"
    assert len(lines) == 2 + 2
    assert [l.split(",")[0] for l in lines[2:]] == ["3", "5"]


def test_simulate_caps_uses_policy_p_r(tmp_path):
    """With every cap already c, --caps c runs the SISP table that
    --policies sisp runs, built from the config's policy.p_r."""
    common = ["--seed", "5", "--horizon", "300", "--replications", "10"]

    def sisp_mean(path, out, *extra):
        assert cli.main(["simulate", "--config", str(path), *common, *extra]) == 0
        name = "divergence.csv" if "--caps" in extra else "results.csv"
        return read_lines(out / name)[2].split(",")[1]

    cfg, out = write_config(tmp_path, TWO_SENSOR_YAML + "policy: {p_r: [0.2, 0.8]}\n")
    default_cfg, _ = write_config(tmp_path, TWO_SENSOR_YAML, "default.yaml")
    with_p_r = sisp_mean(cfg, out, "--policies", "sisp")
    # the probabilities change the SISP table, so a probe that ignored them
    # would run a different policy
    assert with_p_r != sisp_mean(default_cfg, out, "--policies", "sisp")
    assert sisp_mean(cfg, out, "--caps", "7") == with_p_r


def test_simulate_caps_validation(tmp_path, capsys):
    cfg, _ = write_config(tmp_path, ONE_SENSOR_YAML)
    assert cli.main(["simulate", "--config", str(cfg), "--caps", "3,zero"]) == 2
    assert "--caps" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, name",
    [
        (["--trace"], "--trace"),
        (["--policies", "maf,bogus"], "--policies"),
        (["--policies", "maf", "--trace"], "--policies"),
    ],
)
def test_simulate_caps_refuses_comparison_flags(tmp_path, capsys, flags, name):
    cfg, out = write_config(tmp_path, TWO_SENSOR_YAML)
    assert cli.main(["simulate", "--config", str(cfg), "--caps", "3,4", *flags]) == 2
    assert f"config error: {name}:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, name", [("simulate", "results"), ("compare", "compare")])
def test_default_policies(tmp_path, command, name):
    cfg, out = write_config(tmp_path, ONE_SENSOR_YAML)
    assert cli.main([command, "--config", str(cfg), "--horizon", "20"]) == 0
    rows = read_lines(out / f"{name}.csv")[2:]
    assert [row.split(",")[0] for row in rows] == cli.DEFAULT_POLICIES.split(",")


def test_unknown_policy_name(tmp_path, capsys):
    cfg, _ = write_config(tmp_path, ONE_SENSOR_YAML)
    assert cli.main(["simulate", "--config", str(cfg), "--policies", "sisp,bogus"]) == 2
    assert "bogus" in capsys.readouterr().err


def test_markov_arrival_config_roundtrip(tmp_path):
    markov_yaml = ONE_SENSOR_YAML.replace(
        "arrival: {kind: bernoulli, rate: 0.7}",
        "arrival: {kind: markov, stay_empty: 0.6, stay_active: 0.7}",
    )
    cfg, out = write_config(tmp_path, markov_yaml)
    assert cli.main(["solve", "--config", str(cfg), "--policy", "optimal"]) == 0
    header = read_lines(out / "optimal_table.csv")[1]
    assert "arrmem_1" in header


def test_repeated_policy_traces_one_file(tmp_path):
    cfg, out = write_config(tmp_path, TWO_SENSOR_YAML)
    common = ["simulate", "--config", str(cfg), "--seed", "42", "--trace"]
    assert cli.main([*common, "--policies", "maf"]) == 0
    single = (out / "trajectory_maf.csv").read_bytes()
    assert cli.main([*common, "--policies", "maf,maf"]) == 0
    assert [l.split(",")[0] for l in read_lines(out / "results.csv")[2:]] == ["maf", "maf"]
    assert sorted(p.name for p in out.glob("trajectory_*")) == ["trajectory_maf.csv"]
    assert (out / "trajectory_maf.csv").read_bytes() == single
    lines = read_lines(out / "trajectory_maf.csv")
    assert lines[1] == "t,theta,sensor,aoli,aori,scheduled,arrived,delivered,penalty"
    assert len(lines) == 2 + 200 * 2


@pytest.mark.parametrize("command", ["simulate", "compare"])
@pytest.mark.parametrize(
    "flags, name",
    [
        (["--replications", "0"], "--replications"),
        (["--replications", "-3"], "--replications"),
        (["--horizon", "0"], "--horizon"),
        (["--horizon", "-1"], "--horizon"),
        (["--seed", "-1"], "--seed"),
    ],
)
def test_run_flags_checked_like_config_values(
    tmp_path, capsys, monkeypatch, command, flags, name
):
    def no_solve(*args):
        raise AssertionError("flags are checked before any solve")

    monkeypatch.setattr(cli, "_joint_mdp", no_solve)
    cfg, out = write_config(tmp_path, TWO_SENSOR_YAML)
    assert cli.main([command, "--config", str(cfg), "--policies", "maf", *flags]) == 2
    assert f"config error: {name}:" in capsys.readouterr().err
    assert not out.exists()


def test_horizon_flag_must_exceed_warmup(tmp_path, capsys):
    text = TWO_SENSOR_YAML.replace("horizon: 200", "horizon: 200\n  warmup: 50")
    cfg, out = write_config(tmp_path, text)
    assert cli.main(["simulate", "--config", str(cfg), "--horizon", "50"]) == 2
    assert "--horizon: must exceed simulation.warmup 50" in capsys.readouterr().err
    assert cli.main(["simulate", "--config", str(cfg), "--policies", "maf",
                     "--horizon", "51", "--replications", "2"]) == 0


def test_negative_config_seed_names_key(tmp_path, capsys):
    cfg, _ = write_config(tmp_path, TWO_SENSOR_YAML.replace("seed: 42", "seed: -3"))
    assert cli.main(["solve", "--config", str(cfg)]) == 2
    assert "simulation.seed" in capsys.readouterr().err


OVER_BUDGET_P_R = TWO_SENSOR_YAML + "policy: {p_r: [0.7, 0.6]}\n"


@pytest.mark.parametrize(
    "command",
    [
        ["solve", "--policy", "sisp"],
        ["thresholds"],
        ["simulate", "--policies", "sisp"],
        ["simulate", "--caps", "3,4"],
    ],
    ids=["solve", "thresholds", "simulate", "caps"],
)
def test_sisp_refuses_p_r_over_budget(tmp_path, capsys, command):
    cfg, out = write_config(tmp_path, OVER_BUDGET_P_R)
    assert cli.main([command[0], "--config", str(cfg), *command[1:]]) == 2
    err = capsys.readouterr().err
    assert err == "config error: policy.p_r: sum of scheduling probabilities 1.3 exceeds budget 1\n"
    assert not out.exists()


# sensor 2 never receives data, so the arrival-rate proportional default
# scheduling probabilities do not exist
ZERO_RATE_YAML = TWO_SENSOR_YAML.replace("rate: 0.5}", "rate: 0.0}")


@pytest.mark.parametrize(
    "command",
    [
        ["simulate", "--policies", "rand"],
        ["simulate", "--policies", "sisp"],
        ["simulate", "--caps", "3,4"],
        ["solve", "--policy", "sisp"],
        ["thresholds"],
    ],
    ids=["rand", "sisp", "caps", "solve", "thresholds"],
)
def test_zero_arrival_rate_needs_policy_p_r(tmp_path, capsys, command):
    assert ZERO_RATE_YAML != TWO_SENSOR_YAML
    cfg, out = write_config(tmp_path, ZERO_RATE_YAML)
    assert cli.main([command[0], "--config", str(cfg), *command[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: policy.p_r: not given, and all arrival rates")
    assert not out.exists()
    given, _ = write_config(tmp_path, ZERO_RATE_YAML + "policy: {p_r: [0.5, 0.4]}\n", "given.yaml")
    assert cli.main([command[0], "--config", str(given), *command[1:]]) == 0


def run_python(*args):
    """Run python with args in a fresh interpreter on this source tree; its
    stdout.

    pytest imports scipy.sparse itself (the SparseEfficiencyWarning filter),
    so what a command imports shows only in another process."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout


def test_exact_costs_without_a_config_exits_2_with_its_usage():
    """tests/exact_costs.py run with no config prints its usage line on
    stderr, nothing on stdout, and exits 2."""
    script = Path(__file__).resolve().parent / "exact_costs.py"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, str(script)], env=env, capture_output=True, text=True)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("usage: python tests/exact_costs.py <config>")


def test_cli_start_loads_no_stationary_solver_modules():
    """Importing the CLI and loading a config leaves scipy.sparse, its
    solvers and its graph routines unloaded, and scipy's compiled sparse
    routines too, which load on first use (aoisched._csr.tools)."""
    config = Path(__file__).resolve().parents[1] / "configs" / "twosensor.yaml"
    modules = (
        "scipy.sparse", "scipy.sparse.linalg", "scipy.sparse.csgraph", "aoisched._sparsetools"
    )
    code = textwrap.dedent(
        f"""
        import sys
        import aoisched.cli
        aoisched.cli.load_config({str(config)!r})
        print([m for m in {modules!r} if m in sys.modules])
        """
    )
    assert run_python("-c", code).strip() == "[]"


def test_compare_loads_no_scipy_solver_or_graph_modules(tmp_path):
    """compare's stationary solves (GMRES, the closed-class search) are
    numpy code over scipy.sparse matrices: a twosensor compare of every
    policy leaves scipy.sparse.linalg and scipy.sparse.csgraph unloaded,
    whose imports would set the command's peak memory."""
    config = Path(__file__).resolve().parents[1] / "configs" / "twosensor.yaml"
    modules = ("scipy.sparse.linalg", "scipy.sparse.csgraph")
    code = textwrap.dedent(
        f"""
        import sys
        from aoisched import cli
        argv = ["compare", "--config", {str(config)!r}, "--replications", "2",
                "--out", {str(tmp_path)!r}]
        assert cli.main(argv) == 0
        print([m for m in {modules!r} if m in sys.modules])
        """
    )
    assert run_python("-c", code).splitlines()[-1] == "[]"


def test_no_command_loads_scipy_sparse(tmp_path):
    """No command loads scipy.sparse: SISP (its table, thresholds and the
    cap probe), the stability check, the kernel-free baselines, the myopic
    policy, the optimal solve and a compare of every policy call scipy's
    compiled sparse routines directly, or none. The commands run in order
    in one process, so each False also clears the commands before it."""
    cfg, _ = write_config(tmp_path, TWO_SENSOR_YAML)
    short = ["--horizon", "20", "--replications", "2"]
    runs = [
        ["simulate", "--caps", "3,4", *short],
        ["solve", "--policy", "sisp"],
        ["thresholds"],
        ["stability"],
        ["simulate", "--policies", "sisp,maf,mef,rr,rand,idle", *short],
        ["simulate", "--policies", "myopic", *short],
        ["solve", "--policy", "myopic"],
        ["solve", "--policy", "optimal"],
        ["compare", *short],
    ]
    code = textwrap.dedent(
        f"""
        import sys
        from aoisched import cli
        loaded = []
        for args in {runs!r}:
            assert cli.main([args[0], "--config", {str(cfg)!r}, *args[1:]]) == 0, args
            loaded.append("scipy.sparse" in sys.modules)
        print(loaded)
        """
    )
    last = run_python("-c", code).splitlines()[-1]
    assert last == str([False] * 9)


def test_one_chunk_models_start_no_threads(tmp_path):
    """The per-sensor SISP models, the myopic model, the kernel-free
    baselines and twosensor's joint model have at most TABLE_CHUNK distinct
    rows, so they are built and solved on the calling thread: no pool is
    imported and no thread is left, by the optimal solve and by compare
    too. (scipy.sparse itself imports concurrent.futures, which hid the
    joint solves from this check while they loaded it.)"""
    cfg, _ = write_config(tmp_path, TWO_SENSOR_YAML)
    short = ["--horizon", "20", "--replications", "2"]
    runs = [
        ["simulate", "--caps", "3,4", *short],
        ["simulate", "--policies", "sisp,myopic,maf,mef,rr,rand,idle", *short],
        ["solve", "--policy", "sisp"],
        ["solve", "--policy", "myopic"],
        ["solve", "--policy", "optimal"],
        ["compare", *short],
    ]
    code = textwrap.dedent(
        f"""
        import sys, threading
        from aoisched import cli
        for args in {runs!r}:
            assert cli.main([args[0], "--config", {str(cfg)!r}, *args[1:]]) == 0, args
        print(["concurrent.futures" in sys.modules, threading.active_count()])
        """
    )
    assert run_python("-c", code).splitlines()[-1] == "[False, 1]"


def test_randomized_schedule_thins_p_r_over_budget(tmp_path):
    cfg, out = write_config(tmp_path, OVER_BUDGET_P_R)
    args = ["simulate", "--config", str(cfg), "--policies", "rand", "--replications", "2"]
    assert cli.main(args) == 0
    assert read_lines(out / "results.csv")[2].startswith("rand,")


REGION_FLAGS = ["--region", "--lambda-hat", "0.9", "--rho-a", "1.1"]


def _region_hash(tmp_path, name, flags):
    out = tmp_path / name
    assert cli.main(["stability", *flags, "--out", str(out)]) == 0
    return read_lines(out / "region.csv")[0]


@pytest.mark.parametrize("mode", ["config", "kappa"])
def test_region_provenance_covers_every_flag(tmp_path, mode):
    if mode == "config":
        cfg, _ = write_config(tmp_path, TWO_SENSOR_YAML)
        base = ["--config", str(cfg), *REGION_FLAGS]
    else:
        base = ["--kappa00", "0.5", "--kappa11", "0.8", *REGION_FLAGS]
    runs = {
        "base": ["--resolution", "11"],
        "resolution": ["--resolution", "12"],
        "lambda": ["--resolution", "11", "--lambda-hat", "0.8"],
        "rho_a": ["--resolution", "11", "--rho-a", "1.2"],
    }
    hashes = {name: _region_hash(tmp_path, name, base + extra) for name, extra in runs.items()}
    assert all(h.startswith("# config_sha256=") for h in hashes.values())
    assert len(set(hashes.values())) == len(runs)
    assert _region_hash(tmp_path, "again", base + runs["base"]) == hashes["base"]


@pytest.mark.parametrize(
    "flags, name",
    [
        (["--kappa00", "0.4"], "--kappa00"),
        (["--kappa11", "0.7"], "--kappa11"),
        (["--exp-r", "0.5"], "--exp-r"),
    ],
)
def test_stability_refuses_ignored_flags(tmp_path, capsys, flags, name):
    cfg, out = write_config(tmp_path, TWO_SENSOR_YAML)
    args = ["stability", "--config", str(cfg), *REGION_FLAGS, "--resolution", "11", *flags]
    assert cli.main(args) == 2
    assert f"config error: {name}:" in capsys.readouterr().err
    assert not out.exists()


def test_every_csv_needs_no_quoting(tmp_path):
    """Every CSV row the CLI writes is its cells joined by commas and ended
    by "\r\n", the bytes csv.writer writes for those cells (so csv.reader
    reads each line back as line.split(",")), and every row of a file has
    the header's length."""
    cfg, out = write_config(tmp_path, TWO_SENSOR_YAML)
    short = ["--horizon", "30", "--replications", "2"]
    runs = [
        ["solve", "--config", str(cfg), "--policy", "optimal"],
        ["solve", "--config", str(cfg), "--policy", "sisp"],
        ["solve", "--config", str(cfg), "--policy", "myopic"],
        ["thresholds", "--config", str(cfg)],
        ["stability", "--config", str(cfg)],
        ["stability", "--config", str(cfg), *REGION_FLAGS, "--resolution", "11"],
        ["simulate", "--config", str(cfg), "--caps", "3,4", *short],
        ["simulate", "--config", str(cfg), "--policies", ",".join(POLICY_NAMES),
         "--trace", *short],
        ["compare", "--config", str(cfg), "--policies", ",".join(POLICY_NAMES), *short],
    ]
    for args in runs:
        assert cli.main(args) == 0, args
    paths = sorted(out.glob("*.csv"))
    assert len(paths) == 20
    for path in paths:
        with path.open(newline="") as fh:
            comment, body = fh.read().split("\n", 1)
        assert comment.startswith("# config_sha256="), path.name
        *lines, last = body.split("\r\n")
        assert last == "" and len(lines) > 1, path.name
        cells = [line.split(",") for line in lines]
        quoted = io.StringIO(newline="")
        csv.writer(quoted).writerows(cells)
        assert quoted.getvalue() == body, path.name
        # a comma inside a cell would show as a longer row
        assert {len(row) for row in cells} == {len(cells[0])}, path.name



def _edited(old, new):
    """ONE_SENSOR_YAML with its first `old` replaced by `new`."""
    assert old in ONE_SENSOR_YAML, old
    return ONE_SENSOR_YAML.replace(old, new, 1)


SOLVE = ["solve", "--config", "CFG"]
TRACE_PENALTY = "{kind: estimation_trace, a: %s, sigma_w: [[1.0]], %s}"

# the config (None: no config file), the command, and the start of the
# error; CFG stands for the config's path
CONFIG_ERRORS = [
    pytest.param(None, SOLVE, "cannot read config CFG", id="unreadable"),
    pytest.param("channel: [\n", SOLVE, "CFG: not valid YAML", id="yaml"),
    pytest.param("- 1\n- 2\n", SOLVE, "CFG: top level must be a mapping", id="top-level"),
    pytest.param(_edited("output:", "policy: [0.5]\noutput:"), SOLVE,
                 "policy: expected a mapping", id="section"),
    pytest.param(_edited("budget: 1\n", ""), SOLVE,
                 "CFG: missing required key 'budget'", id="missing-key"),
    pytest.param(_edited("{kind: bernoulli, rate: 0.7}", "bernoulli"), SOLVE,
                 "sensors[0].arrival: expected a mapping with a 'kind' key", id="arrival"),
    pytest.param(_edited("kind: bernoulli", "kind: poisson"), SOLVE,
                 "sensors[0].arrival.kind: must be 'bernoulli' or 'markov'", id="arrival-kind"),
    pytest.param(_edited("{kind: exponential, r: 0.5}", "exponential"), SOLVE,
                 "sensors[0].penalty: expected a mapping with a 'kind' key", id="penalty"),
    pytest.param(_edited("kind: exponential", "kind: quadratic"), SOLVE,
                 "sensors[0].penalty.kind: must be 'exponential' or 'estimation_trace'",
                 id="penalty-kind"),
    pytest.param(_edited("r: 0.5", "r: -0.5"), SOLVE,
                 "sensors[0].penalty.r: exponential penalty rate must be positive", id="rate"),
    pytest.param(_edited("{kind: exponential, r: 0.5}",
                         TRACE_PENALTY % ("[[1.1, x]]", "p_bar: [[1.0]]")),
                 SOLVE, "sensors[0].penalty.a: expected a numeric matrix", id="matrix"),
    pytest.param(_edited("{kind: exponential, r: 0.5}",
                         TRACE_PENALTY % ("[1.1]", "p_bar: [[1.0]]")),
                 SOLVE, "sensors[0].penalty.a: expected a 2-D matrix", id="matrix-2d"),
    pytest.param(_edited("{kind: exponential, r: 0.5}",
                         TRACE_PENALTY % ("[[1.1]]", "r_meas: [[0.8]]")),
                 SOLVE, "sensors[0].penalty: estimation_trace needs either p_bar or both c and "
                 "r_meas", id="covariance"),
    pytest.param(_edited("{kind: exponential, r: 0.5}",
                         TRACE_PENALTY % ("[[1.1]]", "p_bar: [[1.0, 0.0], [0.0, 1.0]]")),
                 SOLVE, "sensors[0].penalty: a, sigma_w and p_bar must share one square shape",
                 id="shapes"),
    pytest.param("channel: {kappa00: 0.5, kappa11: 0.8}\nbudget: 1\nsensors: []\n", SOLVE,
                 "sensors: expected a non-empty list", id="no-sensors"),
    pytest.param(_edited("truncation: {max_aori: 3}", "truncation: {}"), SOLVE,
                 "sensors[0]: max_aori missing and no truncation default", id="max-aori"),
    pytest.param(_edited("budget: 1", "budget: 2"), SOLVE,
                 "m_budget must satisfy 1 <= M <= N=1, got 2", id="budget"),
    pytest.param(_edited("output:", "policy: {p_r: [0.5, 0.5]}\noutput:"), SOLVE,
                 "policy.p_r: expected one probability per sensor", id="p_r-length"),
    pytest.param(_edited("horizon: 100", "horizon: 100, warmup: 100"), SOLVE,
                 "simulation.horizon must exceed simulation.warmup", id="warmup"),
    pytest.param(ONE_SENSOR_YAML, ["simulate", "--config", "CFG", "--policies", ","],
                 "--policies: expected a comma separated list", id="policies"),
    pytest.param(ONE_SENSOR_YAML, ["simulate", "--config", "CFG", "--caps", "2,0"],
                 "--caps: need positive truncation caps", id="caps"),
    pytest.param(None, ["stability", "--kappa00", "0.4"],
                 "stability without --config needs --kappa00 and --kappa11", id="kappas"),
    pytest.param(None, ["stability", "--kappa00", "0.4", "--kappa11", "0.7"],
                 "single-point stability check needs --config", id="point-config"),
]


@pytest.mark.parametrize("config, argv, message", CONFIG_ERRORS)
def test_config_error_exits_2_and_writes_nothing(tmp_path, capsys, config, argv, message):
    path, out = tmp_path / "cfg.yaml", tmp_path / "out"
    if config is not None:
        path.write_text(config.replace("OUTDIR", str(out)))
    argv = [str(path) if arg == "CFG" else arg for arg in argv]
    assert cli.main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message.replace('CFG', str(path))}"), err
    assert not out.exists()
