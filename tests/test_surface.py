"""The package's surface: every function production reaches, and the
settable parameters, by name.

The reach test runs every CLI command in process on one small config and
records each function that starts, in every thread. A function under
src/aoisched that no command calls is either on ALLOWED, with its reason,
or dead code to delete. SETTABLE pins the knobs by name, so a new one
shows up by name in the failure and changes SETTABLE in the same diff.
"""

import ast
import sys
import textwrap
import threading
from pathlib import Path

from aoisched import cli, mdp
from aoisched.policies import POLICY_NAMES

SRC = Path(__file__).resolve().parents[1] / "src" / "aoisched"

# caps 3, budget 2 of 2 sensors: one Markov sensor with an estimation-trace
# penalty whose covariance comes from (c, r_meas), one Bernoulli sensor with
# the exponential penalty, and no policy.p_r, so the default probabilities
# are computed
CONFIG = textwrap.dedent(
    """
    channel: {kappa00: 0.5, kappa11: 0.8}
    budget: 2
    truncation: {max_aori: 3}
    sensors:
      - arrival: {kind: markov, stay_empty: 0.6, stay_active: 0.7}
        penalty:
          kind: estimation_trace
          a: [[1.1, 0.5], [0.0, 0.2]]
          sigma_w: [[1.0, 0.0], [0.0, 1.0]]
          c: [[1.0, 1.0]]
          r_meas: [[0.8]]
        p0: 0.5
        p1: 1.0
      - arrival: {kind: bernoulli, rate: 0.6}
        penalty: {kind: exponential, r: 0.5}
        p0: 0.4
        p1: 0.9
    simulation: {horizon: 30, replications: 2, seed: 3}
    """
)

ALL = ",".join(POLICY_NAMES)
COMMANDS = [
    ["solve", "--policy", "optimal"],
    ["solve", "--policy", "sisp"],
    ["solve", "--policy", "myopic"],
    ["thresholds"],
    ["stability"],
    ["stability", "--region", "--lambda-hat", "0.9", "--rho-a", "1.1", "--resolution", "5"],
    ["stability", "--region", "--lambda-hat", "0.9", "--exp-r", "0.5", "--resolution", "5"],
    ["simulate", "--policies", ALL, "--trace"],
    ["simulate", "--caps", "2,3"],
    ["compare", "--policies", ALL],
]

REFERENCE = "a scalar reference that tests compare against"
TRACER = "a target of perfbench/tracer.py"
ACCEPTANCE = "an acceptance helper"

# functions no command calls, by module and qualified name
ALLOWED = {
    ("dynamics", "step_channel"): REFERENCE,
    ("dynamics", "sample_arrival"): REFERENCE,
    ("dynamics", "step_sensor"): REFERENCE,
    ("dynamics", "draw_step"): REFERENCE,
    ("dynamics", "apply_step"): REFERENCE,
    ("dynamics", "step_system"): REFERENCE,
    ("dynamics", "step_system_traced"): f"{REFERENCE}, and {TRACER}",
    ("sim", "run_episode"): f"{REFERENCE}, and {TRACER}",
    ("mdp", "transition_distribution"): REFERENCE,
    ("mdp", "stage_cost"): REFERENCE,
    ("mdp", "StateSpace.decode"): REFERENCE,
    ("model", "ChannelSpec.transition_prob"): f"{REFERENCE} (transition_distribution's channel)",
    ("model", "SystemSpec.is_feasible_action"): f"{REFERENCE} (its budget check)",
    ("policies", "maf_decide"): REFERENCE,
    ("policies", "mef_decide"): REFERENCE,
    ("policies", "_top_m"): f"{REFERENCE} (maf_decide's and mef_decide's rule)",
    ("policies", "randomized_decide"): REFERENCE,
    ("mdp", "_lu_solve"): "the sparse-LU fallback of a stationary solve GMRES misses",
    ("mdp", "_gth"): "the stationary solve of a weakly coupled class, which no config has",
    ("_csr", "permuted"): "the re-pin of a class whose first state is too light to pin, "
    "which no config has",
    ("mdp", "check_value_monotonicity"): ACCEPTANCE,
    ("mdp", "StateSpace.aoli_stride"): f"{ACCEPTANCE} (check_value_monotonicity's step)",
    ("mdp", "average_cost_by_sensor"): ACCEPTANCE,
    ("decomposed", "randomized_chain_matrix"): ACCEPTANCE,
    ("policies", "round_robin_chain"): "the joint oracle of round robin's per-sensor chains, "
    f"and {TRACER}",
    ("mdp", "Kernels.__iter__"): "read by perfbench/tracer.py's build_kernels hook and by tests",
    ("policies", "Policy.decide_array"): "the abstract decision rule every policy overrides",
}

# function parameters with a default, plus public dataclass fields with a
# default, as module.function.parameter (module.Class.field for a field)
SETTABLE = [
    "cli._posint.minimum",
    "cli._prob.strict",
    "cli.main.argv",
    "dynamics.draw_step.predraw_delivery",
    "dynamics.step_system.predraw_delivery",
    "dynamics.step_system_traced.predraw_delivery",
    "mdp.StateSpace.__init__.closed",
    "mdp.table_rows.columns",
    "model._check_prob.strict",
    "sim.monte_carlo.sinks",
    "sim.run_episode.sink",
    "sim.run_episode.warmup",
]


def code_key(code) -> tuple:
    """The key of a code object in defined_functions: its file and qualified
    name from Python 3.11, which do not change when a source file is edited
    after import; before 3.11, which has no co_qualname, its file, first
    line and name."""
    if sys.version_info >= (3, 11):
        return code.co_filename, code.co_qualname
    return code.co_filename, code.co_firstlineno, code.co_name


def defined_functions():
    """{key: (module, qualified name)} of every function and method under
    SRC, nested ones included, keyed as code_key keys their code objects;
    a first line is that of the first decorator, as in the code object."""
    out = {}

    def visit(node, module, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, module, path, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                if sys.version_info >= (3, 11):
                    key = (str(path), name)
                else:
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    key = (str(path), first, child.name)
                out[key] = (module, name)
                visit(child, module, path, f"{name}.<locals>.")
            else:
                visit(child, module, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, path, "")
    return out


def test_every_function_is_reached_or_allowed(tmp_path, monkeypatch):
    config = tmp_path / "surface.yaml"
    config.write_text(CONFIG)
    # the joint model spans several chunks, so the kernels are built and RVI
    # backs up on two threads on any machine
    monkeypatch.setattr(mdp, "TABLE_CHUNK", 8)
    real_count = mdp._worker_count

    def two_workers():
        real_count()  # read as a command reads it
        return 2

    monkeypatch.setattr(mdp, "_worker_count", two_workers)
    # the forked shares run inline, as in a share: calls made in a child
    # are invisible to the profile hook
    monkeypatch.setattr(mdp, "_in_share", True)
    started = set()

    def hook(frame, event, arg):
        if event == "call":
            started.add(frame.f_code)

    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        for command in COMMANDS:
            argv = [*command[:1], "--config", str(config), *command[1:], "--out", str(tmp_path)]
            assert cli.main(argv) == 0, command
    finally:
        sys.setprofile(None)
        threading.setprofile(None)

    defined = defined_functions()
    reached = {defined[key] for key in map(code_key, started) if key in defined}
    assert ("mdp", "_shares.<locals>.run") in reached  # the threaded path ran
    names = set(defined.values())
    assert not set(ALLOWED) - names, "an allowed function no longer exists"
    assert not set(ALLOWED) & reached, "an allowed function is reached: take it off"
    unreached = sorted(names - reached - set(ALLOWED))
    assert not unreached, f"no command calls {unreached}"


def settable_parameters():
    """Sorted names of every parameter with a default and every public
    dataclass field with a default under SRC, methods and nested functions
    named through their class or function."""
    names = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if any("dataclass" in ast.unparse(d) for d in child.decorator_list):
                    names.extend(
                        f"{prefix}{child.name}.{st.target.id}"
                        for st in child.body
                        if isinstance(st, ast.AnnAssign)
                        and st.value is not None
                        and not st.target.id.startswith("_")
                    )
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = getattr(child, "name", "<lambda>")
                args = child.args
                positional = args.posonlyargs + args.args
                defaulted = positional[len(positional) - len(args.defaults):]
                defaulted += [
                    a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
                ]
                names.extend(f"{prefix}{name}.{a.arg}" for a in defaulted)
                visit(child, f"{prefix}{name}.")
            else:
                visit(child, prefix)

    for path in SRC.glob("*.py"):
        visit(ast.parse(path.read_text()), f"{path.stem}.")
    return sorted(names)


def test_settable_parameter_count():
    assert settable_parameters() == SETTABLE

