"""The byte blocks of mdp.table_rows, which cli._write_csv writes, against
the same states written one row at a time, each cell formatted by cli._fmt.
"""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aoisched as a
from aoisched import cli, mdp

from conftest import action_at


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
# 242 states: aoli 0..10 and aori 1..11 hold 1- and 2-digit cells, and
# state_index runs from 1 to 3 digits
WIDE = a.SystemSpec((_sensor(a.BernoulliArrival(0.7), 10, 11),), CHANNEL, 1)

SPECIAL = [-0.0, 3.0, 1e20, 1.5e-7, 123456789012.345, np.inf, np.nan]
SPECIAL_CELLS = ["-0", "3", "1e+20", "1.5e-07", "123456789012", "inf", "nan"]


def cycling_policy(spec, space):
    actions = mdp.ActionSet(spec.n_sensors, spec.m_budget)
    return mdp.PolicyTable(np.arange(space.n_states) % len(actions), actions)


def row_text(cells) -> str:
    """One CSV row of cli._fmt cells, joined by commas and ended by "\r\n"."""
    return ",".join(map(cli._fmt, cells)) + "\r\n"


def oracle_text(space, values, policy):
    """Every state decoded and written one row at a time."""
    n = space.n_sensors
    has_markov = 2 in space.g_sizes
    fh = io.StringIO(newline="")
    header = ["state_index"]
    header += [f"aoli_{i+1}" for i in range(n)]
    header += [f"aori_{i+1}" for i in range(n)]
    header += [f"arrmem_{i+1}" for i in range(n)] if has_markov else []
    fh.write(row_text(header + ["theta", "value", "action_bits"]))
    cells = values.tolist() if values is not None else None
    for idx in range(space.n_states):
        js = space.decode(idx)
        row = [idx]
        row.extend(st.aoli for st in js.sensors)
        row.extend(st.aori for st in js.sensors)
        if has_markov:
            row.extend(js.prev_arrival)  # bools, as the rows used to carry them
        bits = "".join(str(d) for d in action_at(policy, idx))
        fh.write(row_text(row + [js.theta, cells[idx] if cells is not None else "", bits]))
    return fh.getvalue()


def written_text(space, values, policy):
    return b"".join(mdp.table_rows(space, values, policy)).decode("ascii")


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


def test_multi_digit_cells():
    space = mdp.StateSpace(WIDE)
    values = np.linspace(-5.0, 5.0, space.n_states)
    policy = cycling_policy(WIDE, space)
    text = written_text(space, values, policy)
    assert text == oracle_text(space, values, policy)
    lines = [line.split(",") for line in text.splitlines()[1:]]
    for k in (1, 2):  # aoli_1, aori_1
        assert {len(row[k]) for row in lines} == {1, 2}


# Bit patterns that float formatting treats specially: +-0, the smallest
# and largest subnormals, the largest normal, +-inf, and NaNs with other
# signs and payloads (a signalling one among them)
EDGE_BITS = [
    0x0000000000000000, 0x8000000000000000,
    0x0000000000000001, 0x8000000000000001, 0x000FFFFFFFFFFFFF,
    0x7FEFFFFFFFFFFFFF, 0xFFEFFFFFFFFFFFFF,
    0x7FF0000000000000, 0xFFF0000000000000,
    0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001,
    0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF,
]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    pool=st.lists(
        st.one_of(st.sampled_from(EDGE_BITS), st.integers(0, 2**64 - 1)),
        min_size=1,
        max_size=40,
    ),
    seed=st.integers(0, 2**32 - 1),
    # every chunk size puts 9 and 10, and 99 and 100, in one chunk
    chunk=st.sampled_from([7, 16, mdp.TABLE_CHUNK]),
)
def test_random_bit_patterns_print_as_the_writer_prints_them(pool, seed, chunk):
    """Values drawn with repeats from a pool of float64 bit patterns, so
    that the distinct-value table is read many times per value."""
    space = mdp.StateSpace(WIDE)
    picks = np.random.default_rng(seed).integers(len(pool), size=space.n_states)
    values = np.array(pool, dtype=np.uint64).view(np.float64)[picks]
    policy = cycling_policy(WIDE, space)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mdp, "TABLE_CHUNK", chunk)
        assert written_text(space, values, policy) == oracle_text(space, values, policy)
