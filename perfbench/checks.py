"""Output checks for the benchmark's CLI commands.

References come from `reference.json`, recorded by `record_reference.py`.
Tolerances:
- printed gains: relative 1e-10, a few units in the last printed digit;
- value columns: 1e-6 of the value function's largest magnitude;
- exact policy costs: relative 1e-6;
- Monte Carlo means against exact costs: 3 x ci95 plus a start-state bias
  allowance of BIAS_SLOTS / horizon of the exact cost (episodes start in the
  canonical state with warmup 0: rand on twosensor reads 17.338 +- 0.039
  against an exact 17.409 at 500 x 1000 slots). The random error term keeps
  the check valid under any other random stream.
- `action_bits` columns: identical (sha256 of the column).
"""

from __future__ import annotations

import csv
import hashlib
import math
import re
from pathlib import Path

RTOL_GAIN = 1e-10
RTOL_VALUE = 1e-6
RTOL_EXACT = 1e-6
MC_CI_FACTOR = 3.0
BIAS_SLOTS = 10
VALUE_STRIDE = 97

REFERENCE = Path(__file__).with_name("reference.json")

_SOLVE_LINE = re.compile(r"^(\w+): (\d+) states, gain ([^,\s]+)", re.M)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Checks:
    """Named pass/fail results of one command's output."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.results = []  # (name, ok, detail)

    def expect(self, ok: bool, name: str, detail: str = "") -> bool:
        self.results.append((f"{self.prefix}.{name}", bool(ok), detail))
        return bool(ok)

    @property
    def failed(self) -> list:
        return [r for r in self.results if not r[1]]


def _read_csv(path: Path) -> tuple:
    """(provenance comment, rows as dicts) of a CLI output CSV."""
    with open(path, newline="") as fh:
        comment = fh.readline().strip()
        return comment, list(csv.DictReader(fh))


def table_digest(path: Path) -> dict:
    """Row count, sha256 of the action_bits column and every VALUE_STRIDE-th value."""
    with open(path) as fh:
        comment = fh.readline().strip()
        header = fh.readline().rstrip("\n").split(",")
        bits_col = header.index("action_bits")
        value_col = header.index("value") if "value" in header else None
        bits_hash = hashlib.sha256()
        values = []
        rows = 0
        for line in fh:
            cells = line.rstrip("\n").split(",")
            bits_hash.update(cells[bits_col].encode() + b"\n")
            if value_col is not None and rows % VALUE_STRIDE == 0 and cells[value_col]:
                values.append(float(cells[value_col]))
            rows += 1
    return {
        "provenance": comment,
        "header": header,
        "rows": rows,
        "action_bits_sha256": bits_hash.hexdigest(),
        "values": values,
    }


def parse_solve_stdout(stdout: str) -> dict:
    m = _SOLVE_LINE.search(stdout)
    if m is None:
        return {}
    return {"policy": m.group(1), "states": int(m.group(2)), "gain": m.group(3)}


def mc_tolerance(exact: float, ci95: float, horizon: int) -> float:
    return MC_CI_FACTOR * ci95 + BIAS_SLOTS / horizon * abs(exact)


def _close(a: float, b: float, rtol: float) -> bool:
    return math.isclose(a, b, rel_tol=rtol, abs_tol=0.0)


def check_solve(policy: str, stdout: str, out: Path, config_sha: str, ref: dict) -> Checks:
    chk = Checks(f"solve_{policy}")
    printed = parse_solve_stdout(stdout)
    if not chk.expect(printed.get("policy") == policy, "stdout", stdout.strip()[:200]):
        return chk
    chk.expect(
        _close(float(printed["gain"]), float(ref["gain"]), RTOL_GAIN),
        "gain",
        f"{printed['gain']} vs {ref['gain']}",
    )
    chk.expect(printed["states"] == ref["states"], "states", str(printed["states"]))
    table = out / f"{policy}_table.csv"
    if not chk.expect(table.is_file(), "table_exists", str(table.name)):
        return chk
    got = table_digest(table)
    chk.expect(got["provenance"] == f"# config_sha256={config_sha}", "provenance")
    chk.expect(got["rows"] == ref["states"], "table_rows", str(got["rows"]))
    chk.expect(
        got["action_bits_sha256"] == ref["action_bits_sha256"], "action_bits"
    )
    if ref.get("values"):
        scale = max(abs(v) for v in ref["values"])
        worst = max(
            (abs(a - b) for a, b in zip(got["values"], ref["values"])), default=math.inf
        )
        chk.expect(
            len(got["values"]) == len(ref["values"]) and worst <= RTOL_VALUE * scale,
            "values",
            f"max deviation {worst:.3g} of scale {scale:.6g}",
        )
    summary = out / f"{policy}_summary.csv"
    if chk.expect(summary.is_file(), "summary_exists"):
        _, rows = _read_csv(summary)
        row = rows[0] if rows else {}
        chk.expect(
            row.get("policy") == policy and int(row.get("states", -1)) == ref["states"],
            "summary",
        )
        if "pruned_states" in ref:
            chk.expect(
                int(row.get("pruned_states", -1)) == ref["pruned_states"],
                "pruned_states",
                str(row.get("pruned_states")),
            )
    return chk


def _check_mc_row(chk: Checks, name: str, mean: float, ci95: float, exact: float, horizon: int):
    tol = mc_tolerance(exact, ci95, horizon)
    chk.expect(
        abs(mean - exact) <= tol,
        f"mc_vs_exact.{name}",
        f"mean {mean:.6g} exact {exact:.6g} tol {tol:.3g}",
    )


def _results_rows(
    chk: Checks, path: Path, key: str, want, stdout: str, config_sha: str,
    seed: int, replications: int, horizon: int,
):
    """Rows of a Monte Carlo results CSV whose `key` column lists `want`, or None."""
    if not chk.expect(path.is_file(), "csv_exists"):
        return None
    comment, rows = _read_csv(path)
    chk.expect(comment == f"# config_sha256={config_sha}", "provenance")
    got = [r[key] for r in rows]
    if not chk.expect(got == list(want), key, ",".join(got)):
        return None
    chk.expect(len(stdout.strip().splitlines()) == len(rows), "stdout")
    chk.expect(
        all(
            int(r["seed"]) == seed
            and int(r["replications"]) == replications
            and int(r["horizon"]) == horizon
            for r in rows
        ),
        "run_columns",
    )
    return rows


def check_compare(
    stdout: str, out: Path, config_sha: str, ref: dict, seed: int, replications: int, horizon: int
) -> Checks:
    chk = Checks("compare")
    rows = _results_rows(
        chk, out / "compare.csv", "policy", ref["exact_cost"], stdout, config_sha,
        seed, replications, horizon,
    )
    if rows is None:
        return chk
    exact = {r["policy"]: float(r["exact_cost"]) for r in rows}
    for name, want in ref["exact_cost"].items():
        chk.expect(
            _close(exact[name], want, RTOL_EXACT),
            f"exact.{name}",
            f"{exact[name]:.12g} vs {want:.12g}",
        )
    best = exact["optimal"]
    chk.expect(
        all(best <= v * (1 + 1e-9) for v in exact.values()),
        "optimal_is_minimal",
        f"optimal {best:.12g}",
    )
    for r in rows:
        _check_mc_row(
            chk, r["policy"], float(r["mc_mean"]), float(r["mc_ci95"]), exact[r["policy"]], horizon
        )
    return chk


def check_simulate(
    stdout: str, out: Path, config_sha: str, ref: dict, seed: int, replications: int, horizon: int
) -> Checks:
    chk = Checks("simulate")
    rows = _results_rows(
        chk, out / "results.csv", "policy", ref["exact_cost"], stdout, config_sha,
        seed, replications, horizon,
    )
    if rows is None:
        return chk
    for r in rows:
        _check_mc_row(
            chk, r["policy"], float(r["mean_cost"]), float(r["ci95"]),
            ref["exact_cost"][r["policy"]], horizon,
        )
    budget = ref["budget"]
    for name in ref["exact_cost"]:
        traj = out / f"trajectory_{name}.csv"
        if not chk.expect(traj.is_file(), f"trajectory.{name}"):
            continue
        _, steps = _read_csv(traj)
        per_slot = {}
        for s in steps:
            per_slot[s["t"]] = per_slot.get(s["t"], 0) + int(s["scheduled"])
        chk.expect(
            len(steps) == horizon * ref["n_sensors"]
            and len(per_slot) == horizon
            and max(per_slot.values()) <= budget,
            f"trajectory.{name}",
            f"{len(steps)} rows",
        )
    return chk


def check_probe(
    stdout: str, out: Path, config_sha: str, ref: dict, seed: int, replications: int, horizon: int
) -> Checks:
    chk = Checks("probe")
    rows = _results_rows(
        chk, out / "divergence.csv", "cap", ref["probe_exact_cost"], stdout, config_sha,
        seed, replications, horizon,
    )
    if rows is None:
        return chk
    for r in rows:
        _check_mc_row(
            chk, f"cap{r['cap']}", float(r["mean_cost"]), float(r["ci95"]),
            ref["probe_exact_cost"][r["cap"]], horizon,
        )
    return chk
