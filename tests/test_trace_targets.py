"""Every function the benchmark's tracer wraps still exists in aoisched.

perfbench/tracer.py wraps, by name, the functions listed in its TARGETS
dictionary, so deleting or renaming one of them breaks every traced
benchmark run. The tracer file is read here, not edited.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
