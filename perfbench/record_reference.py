"""Record `reference.json`, the expected outputs the benchmark checks against.

    python3 perfbench/record_reference.py

Runs the reference commands once through the CLI of the current source tree
(about two minutes): the three threesensor solves, exact costs of every
compared policy on the exact-3s config, and exact costs on the twosensor
config, including the SISP cost at each divergence-probe cap. Monte Carlo
results are not recorded: they are checked against these exact costs.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
import time

import run
from checks import REFERENCE, parse_solve_stdout, table_digest
from workloads import COMPARE_POLICIES, MC_POLICIES, PROBE_CAPS, WORKLOADS, load_yaml


def cli(args, work, env) -> str:
    argv = [sys.executable, "-m", "aoisched.cli", *map(str, args)]
    child = run.Child(argv, env, work / "logs" / str(args[0]), time.monotonic() + 3600)
    if child.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} failed:\n{child.stderr}")
    return child.stdout


def read_rows(path) -> list:
    with open(path, newline="") as fh:
        fh.readline()  # provenance comment
        return list(csv.DictReader(fh))


def exact_costs(config, policies, work, env) -> dict:
    out = work / f"compare-{config.stem}"
    # A token Monte Carlo run: compare always simulates, but only the exact
    # costs are recorded.
    cli(["compare", "--config", config, "--policies", policies,
         "--replications", 2, "--horizon", 10, "--out", out], work, env)
    return {r["policy"]: float(r["exact_cost"]) for r in read_rows(out / "compare.csv")}


def main() -> int:
    work = run.OUT / "reference"
    shutil.rmtree(work, ignore_errors=True)
    env = run.child_env(work)
    ref = {}

    config = WORKLOADS["solve-3s"].write_config(run.ROOT, work / "solve-3s.yaml", 0)
    ref["solve-3s"] = {}
    for policy in ("optimal", "sisp", "myopic"):
        out = work / f"solve-{policy}"
        printed = parse_solve_stdout(
            cli(["solve", "--config", config, "--policy", policy, "--out", out], work, env)
        )
        digest = table_digest(out / f"{policy}_table.csv")
        entry = {
            "gain": printed["gain"],
            "states": printed["states"],
            "action_bits_sha256": digest["action_bits_sha256"],
        }
        if policy == "sisp":
            summary = read_rows(out / "sisp_summary.csv")[0]
            entry["pruned_states"] = int(summary["pruned_states"])
        if digest["values"]:
            entry["values"] = digest["values"]
        ref["solve-3s"][policy] = entry

    config = WORKLOADS["exact-3s"].write_config(run.ROOT, work / "exact-3s.yaml", 0)
    ref["exact-3s"] = {"exact_cost": exact_costs(config, COMPARE_POLICIES, work, env)}

    config = WORKLOADS["mc-2s"].write_config(run.ROOT, work / "mc-2s.yaml", 0)
    raw = load_yaml(config)
    probe = {}
    for cap in PROBE_CAPS:
        raw["truncation"] = {"max_aori": cap, "max_aoli": cap}
        capped = work / f"mc-2s-cap{cap}.yaml"
        capped.write_text(json.dumps(raw))  # JSON is valid YAML
        probe[str(cap)] = exact_costs(capped, "sisp", work, env)["sisp"]
    ref["mc-2s"] = {
        "budget": raw["budget"],
        "n_sensors": len(raw["sensors"]),
        "exact_cost": exact_costs(config, MC_POLICIES, work, env),
        "probe_exact_cost": probe,
    }

    REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
    shutil.rmtree(work, ignore_errors=True)
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
