"""The chain builders against the whole chain: each policy's chain is built
over the states reachable from the start only, from rows that factor_rows
generates, byte for byte the whole chain restricted to csgraph's reachable
set, with bit-identical exact costs; and compare holds the joint kernels
for the optimal solve only.

The whole chains are assembled here, from each kernel's stacked blocks
indexed by row_of, as the builders assembled them before they restricted
themselves: the table's rows gathered from a stack of every action's
kernel, the mixture summed in action order, and round robin's cursor
blocks joined by sparse.bmat.
"""

import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse.csgraph import breadth_first_order

import aoisched as a
from aoisched import cli, mdp, policies as pol

from conftest import stacked_rows, stuck_channel
from test_kernel_assembly import PROBS, _sensor, small_systems

TWOSENSOR = Path(__file__).resolve().parents[1] / "configs" / "twosensor.yaml"


def whole_table_chain(kernels, action_index):
    n = len(kernels.row_of)
    assembled = [rows[kernels.row_of] for rows in stacked_rows(kernels)]
    stacked = sparse.vstack(assembled, format="csr")
    return stacked[action_index * n + np.arange(n)]


def whole_mixture_chain(kernels, weights):
    out = None
    for rows, w in zip(stacked_rows(kernels), weights):
        if w == 0.0:
            continue
        term = w * rows[kernels.row_of]
        out = term if out is None else out + term
    return out.tocsr()


def whole_round_robin_chain(kernels, n, m):
    actions = mdp.ActionSet(n, m)
    rows = stacked_rows(kernels)
    blocks = [[None] * n for _ in range(n)]
    for cursor in range(n):
        action, nxt = pol.round_robin_decide(cursor, n, m)
        blocks[cursor][nxt] = rows[actions.index(action)][kernels.row_of]
    return sparse.bmat(blocks, format="csr")


def outcome(cost):
    """The exact cost's bits, or the error's type and what it says about
    the chain: a RuntimeError for several closed classes names the start by
    its row in the chain it was given."""
    try:
        return float.hex(cost())
    except RuntimeError as exc:
        return type(exc).__name__, str(exc).split(" reachable from")[0]


def assert_restricted(whole, start, cost, chain):
    """chain = (p, states) is whole restricted to the states reachable from
    start, byte for byte, and gives the same exact cost, bit for bit."""
    p, states = chain
    reach = np.sort(breadth_first_order(whole, start, return_predecessors=False))
    want = whole[np.ix_(reach, reach)].tocsr()
    assert np.array_equal(states, reach)
    assert p.shape == want.shape
    for field in ("data", "indices", "indptr"):
        got, expected = getattr(p, field), getattr(want, field)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), field
    assert outcome(lambda: mdp.chain_average_cost(p, states, cost, start)) == outcome(
        lambda: float(mdp.stationary_distribution(whole, start) @ cost)
    )


@st.composite
def chain_systems(draw):
    spec = draw(small_systems())
    if draw(st.booleans()):
        spec = replace(spec, channel=stuck_channel(spec.channel.kappa11))
    return spec


STUCK_MARKOV = a.SystemSpec(
    (
        _sensor(a.MarkovArrival(0.6, 0.7), 0.5, 0.9, 1, 3),
        _sensor(a.BernoulliArrival(0.8), 0.3, 1.0, 2, 2),
    ),
    stuck_channel(0.75),
    1,
)


# a stuck channel's class can hold states of zero mass, whose pinned system
# is singular: the LU fallback warns before the solve refuses the answer
@pytest.mark.filterwarnings("ignore::scipy.sparse.linalg.MatrixRankWarning")
@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    chain_systems(),
    st.integers(0, 2**32 - 1),
    st.lists(PROBS, min_size=3, max_size=3),
)
@example(STUCK_MARKOV, 7, [0.4, 0.0, 0.0])
@example(STUCK_MARKOV, 8, [0.5, 0.5, 0.5])
def test_chains_are_the_whole_chain_on_its_reachable_states(spec, seed, p):
    space = mdp.StateSpace(spec)
    assume(space.n_states <= 2_000)
    n, m = spec.n_sensors, spec.m_budget
    actions = mdp.ActionSet(n, m)
    factors = mdp.build_factors(spec, space)
    kernels = mdp.build_kernels(factors, space, actions)
    cost = mdp.cost_vector(space, spec)
    start = space.reference_index()

    table = np.random.default_rng(seed).integers(len(actions), size=space.n_states)
    assert_restricted(
        whole_table_chain(kernels, table),
        start,
        cost,
        mdp.policy_chain_matrix(mdp.PolicyTable(table, actions), factors, start),
    )
    weights = pol.randomized_action_weights(p[:n], m, actions)
    assert_restricted(
        whole_mixture_chain(kernels, weights),
        start,
        cost,
        mdp.mixture_chain_matrix(weights, factors, actions, start),
    )
    assert_restricted(
        whole_round_robin_chain(kernels, n, m),
        start,
        np.tile(cost, n),
        pol.round_robin_chain(space, factors, n, m),
    )


def test_stuck_channel_kernels_store_explicit_zeros():
    """The kappa00 = 1 example above exercises explicit zeros: the kernels
    store them, in the bad-channel (theta = 0) rows' steps to the good
    state, and csgraph's search follows them to good-channel states."""
    space = mdp.StateSpace(STUCK_MARKOV)
    actions = mdp.ActionSet(2, 1)
    factors = mdp.build_factors(STUCK_MARKOV, space)
    kernels = mdp.build_kernels(factors, space, actions)
    (theta0, theta1), = kernels.shares
    assert all(np.any(rows.data == 0.0) for rows in theta0[2])
    assert not any(np.any(rows.data == 0.0) for rows in theta1[2])
    idle = mdp.PolicyTable(np.zeros(space.n_states, dtype=np.intp), actions)
    p, states = mdp.policy_chain_matrix(idle, factors, space.reference_index())
    assert np.any(p.data == 0.0)
    assert np.any(states % 2 == 1)  # theta, the fastest index digit, is 1


def compare_argv(tmp_path, policies):
    return ["compare", "--config", str(TWOSENSOR), "--policies", ",".join(policies),
            "--horizon", "50", "--replications", "2", "--out", str(tmp_path)]


def test_compare_solves_each_policy_once_on_reachable_states(tmp_path, monkeypatch):
    """A twosensor compare of all eight policies makes one stationary solve
    per policy, each on a chain whose every row is reachable from its
    start: a chain over the whole grid fails this."""
    calls = []
    solve = mdp.stationary_distribution

    def recorded(p, start_index):
        reached = breadth_first_order(p, start_index, return_predecessors=False)
        calls.append((p.shape[0], len(reached)))
        return solve(p, start_index)

    monkeypatch.setattr(mdp, "stationary_distribution", recorded)
    assert cli.main(compare_argv(tmp_path, pol.POLICY_NAMES)) == 0
    assert len(calls) == len(pol.POLICY_NAMES)
    for rows, reached in calls:
        assert reached == rows


@settings(max_examples=60, deadline=None, derandomize=True)
@given(chain_systems(), st.integers(0, 2**32 - 1), st.booleans())
@example(STUCK_MARKOV, 3, True)
def test_factor_rows_are_kernel_rows_bit_for_bit(spec, seed, chunked):
    """Any rows, in any order, under any action, are those rows of
    kernel_rows byte for byte; chunked, both fill blocks of a few rows."""
    space = mdp.StateSpace(spec)
    assume(space.n_states <= 3_000)
    actions = mdp.ActionSet(spec.n_sensors, spec.m_budget)
    with pytest.MonkeyPatch.context() as mp:
        if chunked:
            mp.setattr(mdp, "TABLE_CHUNK", 8)
        factors = mdp.build_factors(spec, space)
        parts, n_rows = mdp.kernel_rows(factors, actions), factors.n_rows
        rng = np.random.default_rng(seed)
        for action, (data, indices, indptr) in zip(actions.actions, parts):
            rows = rng.permutation(n_rows)[: rng.integers(1, n_rows + 1)]
            entries = [np.arange(indptr[r], indptr[r + 1]) for r in rows]
            take = np.concatenate(entries)
            want = (
                data[take],
                indices[take],
                np.cumsum([0] + [len(e) for e in entries]).astype(indptr.dtype),
            )
            for arr, expected in zip(mdp.factor_rows(factors, action, rows), want, strict=True):
                assert arr.dtype == expected.dtype and arr.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "policies, builds",
    [(pol.POLICY_NAMES, 1), ([name for name in pol.POLICY_NAMES if name != "optimal"], 0)],
    ids=["with-optimal", "without-optimal"],
)
def test_compare_builds_joint_kernels_only_for_optimal(tmp_path, monkeypatch, policies, builds):
    calls = []
    build = mdp.build_kernels

    def counted(*args):
        calls.append(args[1].n_states)
        return build(*args)

    monkeypatch.setattr(mdp, "build_kernels", counted)
    assert cli.main(compare_argv(tmp_path, policies)) == 0
    assert len(calls) == builds


def test_compare_builds_the_joint_factors_once(tmp_path, monkeypatch):
    """The optimal solve and the exact evaluations of one compare share the
    joint model's factors; the myopic model's have another state count."""
    joint = mdp.StateSpace(cli.load_config(str(TWOSENSOR)).system).n_states
    calls = []
    build = mdp.build_factors

    def counted(spec, space):
        calls.append(space.n_states)
        return build(spec, space)

    monkeypatch.setattr(mdp, "build_factors", counted)
    assert cli.main(compare_argv(tmp_path, pol.POLICY_NAMES)) == 0
    assert calls.count(joint) == 1


def test_compare_frees_joint_kernels_before_the_first_evaluation(tmp_path, monkeypatch):
    built, alive = [], []
    build, solve = mdp.build_kernels, mdp.stationary_distribution

    def tracked(*args):
        kernels = build(*args)
        built.append(weakref.ref(kernels))
        return kernels

    def checked(p, start_index):
        alive.append([ref() is not None for ref in built])
        return solve(p, start_index)

    monkeypatch.setattr(mdp, "build_kernels", tracked)
    monkeypatch.setattr(mdp, "stationary_distribution", checked)
    assert cli.main(compare_argv(tmp_path, pol.POLICY_NAMES)) == 0
    assert len(built) == 1
    assert alive[0] == [False]
