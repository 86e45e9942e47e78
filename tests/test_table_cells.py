"""Table cells made a column at a time by mdp.table_rows and written by
cli._write_table, against the same states written one row at a time through
cli._Writer, which formats each cell with cli._fmt.
"""

import io

import numpy as np
import pytest

import aoisched as a
from aoisched import cli, mdp


def _sensor(arrival, max_aoli, max_aori):
    return a.SensorSpec(arrival, a.ExponentialPenalty(0.5), 0.5, 0.9, max_aoli, max_aori)


CHANNEL = a.ChannelSpec(0.5, 0.8)
# 16 states: 16 = 2 * 8 = 3 * 5 + 1
ONE = a.SystemSpec((_sensor(a.BernoulliArrival(0.7), 3, 2),), CHANNEL, 1)
# a Bernoulli sensor beside a Markov one: both kinds of arrmem column
MIXED = a.SystemSpec(
    (_sensor(a.BernoulliArrival(0.7), 1, 2), _sensor(a.MarkovArrival(0.6, 0.7), 1, 2)),
    CHANNEL,
    2,
)

SPECIAL = [-0.0, 3.0, 1e20, 1.5e-7, 123456789012.345, np.inf, np.nan]
SPECIAL_CELLS = ["-0", "3", "1e+20", "1.5e-07", "123456789012", "inf", "nan"]


def cycling_policy(spec, space):
    actions = mdp.ActionSet(spec.n_sensors, spec.m_budget)
    return mdp.PolicyTable(np.arange(space.n_states) % len(actions), actions)


def oracle_text(space, values, policy):
    """Every state decoded and written through cli._Writer."""
    n = space.n_sensors
    has_markov = 2 in space.g_sizes
    fh = io.StringIO(newline="")
    w = cli._Writer(fh)
    header = ["state_index"]
    header += [f"aoli_{i+1}" for i in range(n)]
    header += [f"aori_{i+1}" for i in range(n)]
    header += [f"arrmem_{i+1}" for i in range(n)] if has_markov else []
    w.writerow(header + ["theta", "value", "action_bits"])
    cells = values.tolist() if values is not None else None
    for idx in range(space.n_states):
        js = space.decode(idx)
        row = [idx]
        row.extend(st.aoli for st in js.sensors)
        row.extend(st.aori for st in js.sensors)
        if has_markov:
            row.extend(js.prev_arrival)  # bools, as the rows used to carry them
        bits = "".join(str(d) for d in policy.action_of(idx))
        w.writerow(row + [js.theta, cells[idx] if cells is not None else "", bits])
    return fh.getvalue()


def written_text(space, values, policy):
    fh = io.StringIO(newline="")
    cli._write_table(fh, mdp.table_rows(space, values, policy))
    return fh.getvalue()


def test_special_values_print_as_the_writer_prints_them():
    space = mdp.StateSpace(ONE)
    values = np.resize(np.array(SPECIAL), space.n_states)
    policy = cycling_policy(ONE, space)
    text = written_text(space, values, policy)
    assert text == oracle_text(space, values, policy)
    cells = [line.split(",")[4] for line in text.splitlines()[1:]]
    assert cells[: len(SPECIAL)] == SPECIAL_CELLS


@pytest.mark.parametrize(
    "chunk", [8, 5, 1, mdp.TABLE_CHUNK], ids=["2x8", "3x5+1", "rowwise", "default"]
)
@pytest.mark.parametrize("with_values", [True, False], ids=["values", "blank"])
def test_chunk_edges_lose_and_add_no_line(monkeypatch, chunk, with_values):
    monkeypatch.setattr(mdp, "TABLE_CHUNK", chunk)
    space = mdp.StateSpace(ONE)
    values = np.linspace(-1.0, 2.0, space.n_states) / 3.0 if with_values else None
    policy = cycling_policy(ONE, space)
    text = written_text(space, values, policy)
    assert text == oracle_text(space, values, policy)
    assert text.count("\r\n") == space.n_states + 1
    assert text.endswith("\r\n") and "\r\n\r\n" not in text


def test_arrmem_prints_digits_for_both_arrival_kinds():
    space = mdp.StateSpace(MIXED)
    policy = cycling_policy(MIXED, space)
    text = written_text(space, None, policy)
    assert text == oracle_text(space, None, policy)
    lines = [line.split(",") for line in text.splitlines()]
    col = {name: k for k, name in enumerate(lines[0])}
    for row in lines[1:]:
        # the Bernoulli sensor's memory bit is aoli == 0
        assert row[col["arrmem_1"]] == ("1" if row[col["aoli_1"]] == "0" else "0")
        assert row[col["arrmem_2"]] in ("0", "1")
