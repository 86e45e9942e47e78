"""Every function the benchmark's tracer wraps still exists in aoisched,
and a traced run still derives its counts.

perfbench/tracer.py wraps, by name, the functions listed in its TARGETS
dictionary, so deleting or renaming one of them breaks every traced
benchmark run. Its hooks also bind arguments by name (space, cost, p,
horizon), each of which must stay a parameter of its target, and read
return values (RVI's iterations, the pruning count, the kernels' nnz and
data, the stationary masses), which only a traced run exercises. The tracer
file is read and run here, not edited.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import math
import textwrap
from pathlib import Path

import pytest

from aoisched import cli, mdp
from test_cli import run_python
from test_stationary import compare_chains

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
TWO_SENSOR = ROOT / "configs" / "twosensor.yaml"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_targets():
    return load_tracer().TARGETS


def bound_keys(hook) -> set:
    """The keys of every args["..."] that an AFTER hook reads."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(hook)))
    return {
        node.slice.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name)
        and node.value.id == "args"
        and isinstance(node.slice, ast.Constant)
    }


def test_every_hook_binding_is_a_parameter_of_its_target():
    """A hook reads its target's arguments by parameter name, so renaming
    one breaks the traced run that calls the target; no traced run calls
    run_episode, so only this test sees its binding."""
    after = load_tracer().AFTER
    assert after
    for name, hook in after.items():
        module_name, function_name = name.split(".")
        target = getattr(importlib.import_module(f"aoisched.{module_name}"), function_name)
        keys = bound_keys(hook)
        assert keys, f"{name}'s hook reads no argument"
        missing = keys - set(inspect.signature(target).parameters)
        assert not missing, f"{name} has no parameter {sorted(missing)}"


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
