"""The CI workflow runs the tier-1 suite as ROADMAP.md states it.

.github/workflows/tier1.yml can only be checked offline, so this reads it:
each job's test step runs ROADMAP's tier-1 command exactly (the one-cpu job
pinned to CPU 0 by taskset), the matrix holds pyproject.toml's
requires-python floor, 3.11 and 3.12, the
scipy-floor job installs the scipy release pyproject.toml's floor names,
and the extra that the install step installs lists pytest and hypothesis.
"""

import re
from pathlib import Path

import pytest
import yaml

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def tier1_command() -> str:
    text = (ROOT / "ROADMAP.md").read_text()
    return re.search(r"^\*\*Tier-1 verify:\*\* `([^`]+)`", text, flags=re.M).group(1)


def runs(job: dict, word: str) -> list:
    return [step["run"] for step in job["steps"] if word in step.get("run", "")]


def pyproject_extras() -> dict:
    with open(ROOT / "pyproject.toml", "rb") as f:
        return tomllib.load(f)["project"]["optional-dependencies"]


def test_every_job_runs_the_tier1_command():
    jobs = yaml.safe_load(WORKFLOW.read_text())["jobs"]
    command = tier1_command()
    pinned = command.replace("python -m pytest", "taskset -c 0 python -m pytest", 1)
    assert pinned != command
    assert runs(jobs["tests"], "pytest") == [command]
    assert runs(jobs["one-cpu"], "pytest") == [pinned]
    assert runs(jobs["scipy-floor"], "pytest") == [command]
    assert set(jobs) == {"tests", "one-cpu", "scipy-floor"}


def test_floor_job_installs_the_scipy_floor():
    jobs = yaml.safe_load(WORKFLOW.read_text())["jobs"]
    with open(ROOT / "pyproject.toml", "rb") as f:
        dependencies = tomllib.load(f)["project"]["dependencies"]
    (floor,) = [re.fullmatch(r"scipy>=([\d.]+)", dep).group(1) for dep in dependencies
                if dep.startswith("scipy")]
    (install,) = runs(jobs["scipy-floor"], "pip install")
    assert f'"scipy=={floor}.*"' in install


def test_matrix_holds_the_python_floor_311_and_312():
    """The oldest Python that requires-python allows is run too, since it
    installs an older numpy than the others."""
    jobs = yaml.safe_load(WORKFLOW.read_text())["jobs"]
    versions = jobs["tests"]["strategy"]["matrix"]["python-version"]
    with open(ROOT / "pyproject.toml", "rb") as f:
        requires = tomllib.load(f)["project"]["requires-python"]
    floor = re.fullmatch(r">=\s*(\d+\.\d+)", requires).group(1)
    assert {floor, "3.11", "3.12"} <= set(versions)


def test_installed_extra_lists_pytest_and_hypothesis():
    jobs = yaml.safe_load(WORKFLOW.read_text())["jobs"]
    extras = pyproject_extras()
    for job in jobs.values():
        (install,) = runs(job, "pip install")
        (extra,) = re.findall(r"\.\[(\w+)\]", install)
        assert extra in extras, f"pyproject.toml has no [{extra}] extra"
        names = {re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower() for dep in extras[extra]}
        assert {"pytest", "hypothesis"} <= names
