"""Every function the benchmark's tracer wraps still exists in aoisched,
and a traced run still derives its counts.

perfbench/tracer.py wraps, by name, the functions listed in its TARGETS
dictionary, so deleting or renaming one of them breaks every traced
benchmark run. Its hooks also bind arguments by name (space, cost, p) and
read return values (RVI's iterations, the pruning count, the kernels' nnz
and data, the stationary masses), which only a traced run exercises. The
tracer file is read and run here, not edited.
"""

import importlib
import importlib.util
import json
import math
from pathlib import Path

import pytest

from aoisched import cli, mdp
from test_cli import run_python
from test_stationary import compare_chains

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
TWO_SENSOR = ROOT / "configs" / "twosensor.yaml"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_tracer_target_resolves():
    targets = load_targets()
    assert targets
    for module_name, names in targets.items():
        module = importlib.import_module(f"aoisched.{module_name}")
        missing = [name for name in names if not callable(getattr(module, name, None))]
        assert not missing, f"aoisched.{module_name} lacks {missing}"


@pytest.mark.parametrize(
    "args, counts",
    [
        (
            ["compare", "--policies", "optimal,sisp,maf,mef,rr,rand,myopic,idle",
             "--horizon", "50", "--replications", "2"],
            ("n_states", "kernel_nnz", "rvi_iterations", "stationary_states"),
        ),
        (["solve", "--policy", "sisp"], ("rvi_iterations", "pruned_states")),
    ],
    ids=["compare", "solve_sisp"],
)
def test_traced_run_derives_counts(tmp_path, args, counts):
    spans = tmp_path / "spans.json"
    command = [args[0], "--config", str(TWO_SENSOR), *args[1:], "--out", str(tmp_path / "out")]
    run_python(str(TRACER), str(spans), *command)  # raises unless it exits 0
    report = json.loads(spans.read_text())
    missing = [key for key in counts if not report["counts"].get(key)]
    assert not missing, f"no {missing} in {report['counts']}"
    if args[0] == "compare":
        # the stationary hook reads the solved chains and their masses
        counts = report["counts"]
        assert 0 <= counts["stationary_residual_max"] <= mdp.STATIONARY_RESIDUAL
        chains = compare_chains(cli.load_config(TWO_SENSOR)).values()
        assert counts["stationary_states"] == sum(chain.p.shape[0] for chain, _ in chains)


def test_traced_table_opens_one_span_per_block(tmp_path):
    """The tracer times a generator one span per `next`, so table_rows must
    yield whole blocks, not rows: a header, ceil(n / TABLE_CHUNK) blocks and
    the final StopIteration."""
    spans = tmp_path / "spans.json"
    command = ["solve", "--config", str(TWO_SENSOR), "--policy", "optimal",
               "--out", str(tmp_path / "out")]
    run_python(str(TRACER), str(spans), *command)  # raises unless it exits 0
    report = json.loads(spans.read_text())
    n = mdp.StateSpace(cli.load_config(TWO_SENSOR).system).n_states
    table_spans = [span for span in report["spans"] if span[1] == "mdp.table_rows"]
    assert report["functions"]["mdp.table_rows"]["calls"] == 1
    assert 0 < len(table_spans) <= math.ceil(n / mdp.TABLE_CHUNK) + 2
