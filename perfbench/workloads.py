"""The benchmark's workloads: generated configs and the CLI commands run on them.

Each workload writes its own YAML config into a work directory, derived from
a shipped config plus the workload seed, and the program only ever sees that
generated file. A workload is a closed loop: one CLI command at a time, each
started after the previous one exited.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import yaml

# Monte Carlo size of the generated configs: horizon slots per replication
# and replications per policy.
HORIZON = 1000
EXACT_REPLICATIONS = 20
MC_REPLICATIONS = 40

MC_POLICIES = "sisp,maf,mef,rr,rand,myopic,idle"
COMPARE_POLICIES = "optimal,sisp,maf,mef,rr,rand,myopic,idle"
PROBE_CAPS = (7, 10, 14)

SKIPPED = {
    "compare-3s": (
        "threesensor compare is infeasible with the current solver: it needs "
        "351,232-state stationary solves and a 1,053,696-state round-robin chain"
    ),
}


@dataclass(frozen=True)
class Command:
    """One CLI invocation; `metric` names its wall time, `kind` its output check."""

    metric: str
    kind: str
    args: tuple

    def argv(self, config: Path, out: Path, seed: int) -> list:
        return [a.format(config=config, out=out, seed=seed) for a in self.args]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    base_config: str
    derive: Callable  # (raw config dict, seed) -> None, edits in place
    commands: tuple

    def write_config(self, root: Path, dest: Path, seed: int) -> Path:
        """Write this workload's config for `seed` to `dest` and return it."""
        raw = load_yaml(root / self.base_config)
        self.derive(raw, seed)
        dest.parent.mkdir(parents=True, exist_ok=True)
        dest.write_text(yaml.safe_dump(raw, sort_keys=False))
        return dest


def load_yaml(path: Path) -> dict:
    return yaml.safe_load(path.read_text())


def mc_seed(seed: int) -> int:
    """Monte Carlo base seed of a workload seed (the library needs it >= 0)."""
    return seed % 2**31


def _simulation(raw: dict, replications: int, seed: int) -> None:
    raw["simulation"] = {
        "horizon": HORIZON,
        "replications": replications,
        "warmup": 0,
        "seed": mc_seed(seed),
    }


def _derive_solve_3s(raw: dict, seed: int) -> None:
    # The shipped threesensor config unchanged: the solvers draw no random
    # numbers, so the seed has nothing to set here.
    del seed


def _derive_exact_3s(raw: dict, seed: int) -> None:
    raw["budget"] = 2
    sensors = raw["sensors"]
    sensors[2] = dict(sensors[2])
    # Same mean arrival rate (0.5) as the Bernoulli sensor it replaces.
    sensors[2]["arrival"] = {"kind": "markov", "stay_empty": 0.6, "stay_active": 0.6}
    for s, cap in zip(sensors, (4, 4, 3)):
        s["max_aori"] = cap
        s["max_aoli"] = cap
    _simulation(raw, EXACT_REPLICATIONS, seed)


def _derive_mc_2s(raw: dict, seed: int) -> None:
    _simulation(raw, MC_REPLICATIONS, seed)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "solve-3s",
            "threesensor solve optimal/sisp/myopic: kernel build, RVI, SISP table "
            "and CSV writing at the 351,232-state scale target",
            "configs/threesensor.yaml",
            _derive_solve_3s,
            (
                Command("solve_optimal_s", "solve_optimal",
                        ("solve", "--config", "{config}", "--policy", "optimal", "--out", "{out}")),
                Command("solve_sisp_s", "solve_sisp",
                        ("solve", "--config", "{config}", "--policy", "sisp", "--out", "{out}")),
                Command("solve_myopic_s", "solve_myopic",
                        ("solve", "--config", "{config}", "--policy", "myopic", "--out", "{out}")),
            ),
        ),
        Workload(
            "exact-3s",
            "19,200-state M=2 Markov-arrival compare of all 8 policies: exact "
            "policy evaluation dominates, with a short Monte Carlo run",
            "configs/threesensor.yaml",
            _derive_exact_3s,
            (
                Command("compare_s", "compare",
                        ("compare", "--config", "{config}", "--policies", COMPARE_POLICIES,
                         "--seed", "{seed}", "--out", "{out}")),
            ),
        ),
        Workload(
            "mc-2s",
            "twosensor simulate of 7 policies with --trace, then the cap probe: "
            "the scalar Monte Carlo engine does nearly all the work",
            "configs/twosensor.yaml",
            _derive_mc_2s,
            (
                Command("simulate_s", "simulate",
                        ("simulate", "--config", "{config}", "--policies", MC_POLICIES,
                         "--trace", "--seed", "{seed}", "--out", "{out}")),
                Command("probe_s", "probe",
                        ("simulate", "--config", "{config}",
                         "--caps", ",".join(map(str, PROBE_CAPS)),
                         "--seed", "{seed}", "--out", "{out}")),
            ),
        ),
    )
}
