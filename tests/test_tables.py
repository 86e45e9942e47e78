"""Solve tables written by the CLI against a state-by-state oracle.

The oracle decodes every index with StateSpace.decode and writes the rows
one at a time, each cell formatted by cli._fmt: a state-by-state reference
for the tables that mdp.table_rows builds from StateSpace.lanes. Each
table is compared byte for byte.
"""

import csv
import textwrap
from pathlib import Path

import pytest

from aoisched import cli, decomposed, mdp, policies as pol

from conftest import action_at

DEFAULT_CHUNK = mdp.TABLE_CHUNK

BERNOULLI_YAML = textwrap.dedent(
    """
    channel: {kappa00: 0.5, kappa11: 0.8}
    budget: 1
    truncation: {max_aori: 4, max_aoli: 3}
    sensors:
      - arrival: {kind: bernoulli, rate: 0.9}
        penalty: {kind: exponential, r: 0.4}
        p0: 0.5
        p1: 1.0
      - arrival: {kind: bernoulli, rate: 0.5}
        penalty: {kind: exponential, r: 0.3}
        p0: 0.4
        p1: 0.9
    output: {dir: OUTDIR}
    """
)

# M = 2 with one Markov sensor: the arrmem columns hold its memory bit and
# aoli == 0 for the two Bernoulli sensors.
MARKOV_YAML = textwrap.dedent(
    """
    channel: {kappa00: 0.5, kappa11: 0.8}
    budget: 2
    truncation: {max_aori: 3, max_aoli: 1}
    sensors:
      - arrival: {kind: bernoulli, rate: 0.9}
        penalty: {kind: exponential, r: 0.4}
        p0: 0.5
        p1: 1.0
      - arrival: {kind: bernoulli, rate: 0.5}
        penalty: {kind: exponential, r: 0.3}
        p0: 0.4
        p1: 0.9
      - arrival: {kind: markov, stay_empty: 0.6, stay_active: 0.6}
        penalty: {kind: exponential, r: 0.3}
        p0: 0.3
        p1: 0.8
    output: {dir: OUTDIR}
    """
)


def oracle_table(path, cfg, space, values, policy, myopic=False):
    """The table as decoded state by state and written one row at a time."""
    n = space.n_sensors
    has_markov = any(s.has_markov_arrivals for s in cfg.system.sensors)
    with path.open("w", newline="") as fh:
        fh.write(f"# config_sha256={cfg.config_hash}\n")

        def writerow(cells):
            fh.write(",".join(map(cli._fmt, cells)) + "\r\n")

        if myopic:
            writerow(["state_index"] + [f"aori_{i+1}" for i in range(n)]
                     + ["theta", "action_bits"])
        else:
            header = ["state_index"]
            header += [f"aoli_{i+1}" for i in range(n)]
            header += [f"aori_{i+1}" for i in range(n)]
            if has_markov:
                header += [f"arrmem_{i+1}" for i in range(n)]
            writerow(header + ["theta", "value", "action_bits"])
        for idx in range(space.n_states):
            js = space.decode(idx)
            bits = "".join(str(d) for d in action_at(policy, idx))
            if myopic:
                writerow([idx, *(st.aori for st in js.sensors), js.theta, bits])
                continue
            row = [idx]
            row.extend(st.aoli for st in js.sensors)
            row.extend(st.aori for st in js.sensors)
            if has_markov:
                row.extend(int(b) for b in js.prev_arrival)
            row += [js.theta, values[idx] if values is not None else "", bits]
            writerow(row)
    return path.read_bytes()


def expected_tables(cfg, tmp_path):
    system = cfg.system
    space, vt, pt = mdp.solve_optimal_policy(system)
    sisp, _, _ = decomposed.build_policy_table_with_pruning(
        decomposed.solve_sisp_values(system, cli._scheduling_probs(cfg)), space
    )
    myopic = pol.build_myopic_policy(system)
    return {
        "optimal": oracle_table(tmp_path / "o.csv", cfg, space, vt.values, pt),
        "sisp": oracle_table(tmp_path / "s.csv", cfg, space, None, sisp),
        "myopic": oracle_table(
            tmp_path / "m.csv", cfg, myopic.space, None, myopic.table, myopic=True
        ),
    }


@pytest.mark.parametrize("text", [BERNOULLI_YAML, MARKOV_YAML], ids=["bernoulli", "markov"])
@pytest.mark.parametrize("chunk", [DEFAULT_CHUNK, 7], ids=["default_chunk", "chunk7"])
def test_solve_tables_match_decode_oracle(tmp_path, monkeypatch, text, chunk):
    monkeypatch.setattr(mdp, "TABLE_CHUNK", chunk)
    out = tmp_path / "out"
    path = tmp_path / "cfg.yaml"
    path.write_text(text.replace("OUTDIR", str(out)))
    cfg = cli.load_config(path)
    expected = expected_tables(cfg, tmp_path)
    # every table spans more than one chunk of 7 rows, none fills the default
    assert 7 < len(expected["myopic"].splitlines()) - 2 < DEFAULT_CHUNK
    for policy, blob in expected.items():
        assert cli.main(["solve", "--config", str(path), "--policy", policy]) == 0
        assert (out / f"{policy}_table.csv").read_bytes() == blob, policy


TWO_SENSOR = Path(__file__).resolve().parents[1] / "configs" / "twosensor.yaml"

# A sensor with an almost blind bad channel: its thresholds depend on the
# channel state, and in the bad state it is never scheduled.
CHANNEL_YAML = textwrap.dedent(
    """
    channel: {kappa00: 0.5, kappa11: 0.8}
    budget: 1
    truncation: {max_aori: 4, max_aoli: 3}
    sensors:
      - arrival: {kind: bernoulli, rate: 0.9}
        penalty: {kind: exponential, r: 0.4}
        p0: 0.1
        p1: 1.0
      - arrival: {kind: bernoulli, rate: 0.5}
        penalty: {kind: exponential, r: 0.5}
        p0: 0.4
        p1: 0.9
    output: {dir: OUTDIR}
    """
)


def first_scheduled_ages(table_csv):
    """(sensor, theta, first aori) at which the table schedules each sensor
    in the thresholds' context: every buffer age 0, every arrival memory 1,
    every other sensor at monitor age 1; "inf" if it never does."""
    rows = list(csv.DictReader(table_csv.read_text().splitlines()[1:]))
    n = sum(1 for name in rows[0] if name.startswith("aori_"))
    out = []
    for i in range(1, n + 1):
        for theta in ("0", "1"):
            ages = [
                int(r[f"aori_{i}"])
                for r in rows
                if r["theta"] == theta
                and r["action_bits"][i - 1] == "1"
                and all(
                    r[f"aoli_{j}"] == "0"
                    and r.get(f"arrmem_{j}", "1") == "1"
                    and (j == i or r[f"aori_{j}"] == "1")
                    for j in range(1, n + 1)
                )
            ]
            out.append([str(i), theta, str(min(ages)) if ages else "inf"])
    return out


@pytest.mark.parametrize(
    "text", [None, MARKOV_YAML, CHANNEL_YAML], ids=["twosensor", "markov", "channel"]
)
def test_thresholds_are_first_scheduled_ages_of_sisp_table(tmp_path, text):
    out = tmp_path / "out"
    path = TWO_SENSOR if text is None else tmp_path / "cfg.yaml"
    if text is not None:
        path.write_text(text.replace("OUTDIR", str(out)))
    for command in (["thresholds"], ["solve", "--policy", "sisp"]):
        assert cli.main([*command, "--config", str(path), "--out", str(out)]) == 0
    thresholds = list(csv.reader((out / "thresholds.csv").read_text().splitlines()[2:]))
    assert thresholds == first_scheduled_ages(out / "sisp_table.csv")
    if text is CHANNEL_YAML:
        assert [row[2] for row in thresholds] == ["inf", "2", "1", "1"]
