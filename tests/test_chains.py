"""The chain builders against the whole chain, through the state chain.

tests/chain_oracle.py keeps the chain builders as they were before the
chains were lumped: each policy's chain over the states reachable from the
start, one row per state. The whole-chain test checks that oracle against
the whole chain, assembled here from each kernel's stacked blocks indexed
by row_of, as the builders assembled it before they restricted themselves:
the table's rows gathered from a stack of every action's kernel, the
mixture summed in action order, and round robin's cursor blocks joined by
sparse.bmat. The quotient test checks the lumped chains of
mdp.reachable_chain against the oracle's state chain, merged here on the
states' keys; and compare holds the joint kernels for the optimal solve
only.
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
from aoisched.model import ConvergenceError

import chain_oracle
import stationary_oracle
from conftest import as_scipy, kernel_rows, recorded_chains, stacked_rows, stuck_channel
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
    the chain: for several closed classes, their count (the stationary
    oracle's message also names the start)."""
    try:
        return float.hex(cost())
    except RuntimeError as exc:
        return type(exc).__name__, str(exc).split(" recurrent classes")[0]


def assert_restricted(whole, start, cost, chain):
    """chain = (p, states) is whole restricted to the states reachable from
    start, byte for byte, and gives the same exact cost, bit for bit, as the
    stationary oracle's solve of whole from start."""
    p, states = chain
    reach = np.sort(breadth_first_order(whole, start, return_predecessors=False))
    want = whole[np.ix_(reach, reach)].tocsr()
    assert np.array_equal(states, reach)
    assert p.shape == want.shape
    for field in ("data", "indices", "indptr"):
        got, expected = getattr(p, field), getattr(want, field)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), field
    assert outcome(lambda: chain_oracle.chain_average_cost(p, states, cost)) == outcome(
        lambda: float(stationary_oracle.stationary_distribution(whole, start) @ cost)
    )


def lumped(p, keys):
    """The state chain p lumped on its states' keys, stated plainly: keys
    numbered in the order they first appear among the states, rep the row
    of each key's first state (every state of a key has that row, checked
    here), and p_hat = rep C, each row's entries of one key added in the
    row's stored order. Returns (key_of, rep, p_hat); rep's and p_hat's
    columns are positions in p."""
    number = {}
    key_of = np.array([number.setdefault(key, len(number)) for key in zip(*keys)])
    k = len(number)
    first = np.unique(key_of, return_index=True)[1]
    copied = p[first[key_of]]
    for field in ("data", "indices", "indptr"):
        assert getattr(copied, field).tobytes() == getattr(p, field).tobytes(), field
    rep = p[first]
    rows = np.repeat(np.arange(k), np.diff(rep.indptr))
    cells, inverse = np.unique(rows * k + key_of[rep.indices], return_inverse=True)
    data = np.zeros(len(cells))
    np.add.at(data, inverse, rep.data)
    indptr = np.searchsorted(cells // k, np.arange(k + 1))
    return key_of, rep, (data, cells % k, indptr)


# the largest distance, in ulps, of a lumped chain's exact cost from the
# state chain's: 3 over every example of the quotient test, and 4 on the
# shipped threesensor config (maf)
COST_ULPS = 4


def ulps(x: float, y: float) -> int:
    return abs(int(np.float64(x).view(np.int64)) - int(np.float64(y).view(np.int64)))


def failure(exc):
    """The error's type, and for several closed classes their count: a
    failed solve's message names a class size and a residual, which
    lumping moves."""
    if isinstance(exc, ConvergenceError):
        return type(exc).__name__
    return type(exc).__name__, str(exc)


def assert_quotient(oracle, chain, keys, cost, copies=1):
    """chain, a Chain of mdp.reachable_chain, is the oracle's state chain
    (p, states) lumped on the states' keys, keys[i][s] being the i-th part
    of state s's key: rep and p_hat byte for byte. Its stationary
    distribution spread back to the states by rep matches the state
    chain's within the L1 certificate, and its exact cost the state
    chain's within COST_ULPS; or both solves fail alike. The state chain's
    costs are `copies` copies of cost, one per round-robin cursor."""
    p, states = oracle
    _, rep, p_hat = lumped(p, [key[states] for key in keys])
    assert chain.rep.data.tobytes() == rep.data.tobytes()
    assert np.array_equal(chain.rep.indices, states[rep.indices])
    assert np.array_equal(chain.rep.indptr, rep.indptr)
    data, indices, indptr = p_hat
    assert chain.p.data.tobytes() == data.tobytes()
    assert np.array_equal(chain.p.indices, indices)
    assert np.array_equal(chain.p.indptr, indptr)
    try:
        xi = mdp.stationary_distribution(p)
    except RuntimeError as exc:  # ConvergenceError included
        with pytest.raises(type(exc)) as lumped_exc:
            mdp.stationary_distribution(chain.p)
        assert failure(lumped_exc.value) == failure(exc)
        return
    spread = (chain.rep.T @ mdp.stationary_distribution(chain.p))[states]
    assert np.abs(spread - xi).sum() <= mdp.STATIONARY_RESIDUAL
    assert np.abs(p.T @ spread - spread).sum() <= mdp.STATIONARY_RESIDUAL
    got = mdp.chain_average_cost(chain, cost)
    want = chain_oracle.chain_average_cost(p, states, np.tile(cost, copies))
    assert ulps(got, want) <= COST_ULPS


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
# can be singular: the LU fallback warns before those masses are set to zero
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
    """The oracle's state chains are the whole chains on their reachable
    states."""
    space = mdp.StateSpace(spec)
    assume(space.n_states <= 2_000)
    n, m = spec.n_sensors, spec.m_budget
    actions = space.action_set
    factors = space.factors
    kernels = mdp.build_kernels(space)
    cost = mdp.cost_vector(space)
    start = space.reference_index()

    table = np.random.default_rng(seed).integers(len(actions), size=space.n_states)
    assert_restricted(
        whole_table_chain(kernels, table),
        start,
        cost,
        chain_oracle.policy_chain_matrix(mdp.PolicyTable(table, actions), factors, start),
    )
    weights = pol.randomized_action_weights(p[:n], m, actions)
    assert_restricted(
        whole_mixture_chain(kernels, weights),
        start,
        cost,
        chain_oracle.mixture_chain_matrix(weights, factors, actions, start),
    )
    assert_restricted(
        whole_round_robin_chain(kernels, n, m),
        start,
        np.tile(cost, n),
        chain_oracle.round_robin_chain(space, factors, n, m),
    )


def idle_first(max_aori):
    """Two sensors that never receive data, the first delivering in the good
    channel only. Scheduled with a probability near zero, the first sensor's
    monitor age is almost never 1, so those states, the class's first, hold
    a negligible mass."""
    return a.SystemSpec(
        (
            _sensor(a.BernoulliArrival(0.0), 0.0, 1.0, 0, max_aori),
            _sensor(a.BernoulliArrival(0.0), 0.0, 0.0, 0, 1),
        ),
        a.ChannelSpec(0.5, 0.5),
        1,
    )


def nearly_periodic(first, p0, max_aori):
    """Two sensors, the first never delivering, the second with success
    p0 in the bad channel state only and Markov arrivals that alternate,
    staying active with probability 2^-23 only: round robin's chain splits
    into two parts that steps of about 6e-8 couple."""
    return a.SystemSpec(
        (
            _sensor(first, 0.0, 0.0, 0, 2),
            _sensor(a.MarkovArrival(0.0, 1.192092896e-07), p0, 0.0, 0, max_aori),
        ),
        a.ChannelSpec(0.5, 0.5),
        1,
    )


# three sensors, one with Markov arrivals, and a budget of two
MARKOV_M2 = a.SystemSpec(
    (
        _sensor(a.BernoulliArrival(0.7), 0.4, 0.9, 2, 2),
        _sensor(a.MarkovArrival(0.5, 0.8), 0.3, 0.8, 1, 2),
        _sensor(a.BernoulliArrival(0.5), 0.5, 1.0, 1, 2),
    ),
    a.ChannelSpec(0.4, 0.7),
    2,
)


@pytest.mark.filterwarnings("ignore::scipy.sparse.linalg.MatrixRankWarning")
@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    chain_systems(),
    st.integers(0, 2**32 - 1),
    st.lists(PROBS, min_size=3, max_size=3),
)
@example(STUCK_MARKOV, 7, [0.4, 0.0, 0.0])
@example(STUCK_MARKOV, 8, [0.5, 0.5, 0.5])
@example(MARKOV_M2, 9, [0.6, 0.3, 0.5])
@example(idle_first(2), 0, [1.1125369292536007e-308, 0.0, 0.0])
@example(nearly_periodic(a.BernoulliArrival(0.0), 0.0, 1), 0, [0.0, 0.0, 0.0])
@example(nearly_periodic(a.MarkovArrival(0.0, 0.0), 1.0, 2), 1, [0.0, 0.0, 0.0])
def test_lumped_chains_are_the_quotient_of_the_state_chain(spec, seed, p):
    """The table, mixture and round-robin chains are the oracle's state
    chains lumped on their (action, row), (0, row) and (cursor, row) keys."""
    space = mdp.StateSpace(spec)
    assume(space.n_states <= 2_000)
    n, m = spec.n_sensors, spec.m_budget
    actions = space.action_set
    factors = space.factors
    cost = mdp.cost_vector(space)
    start = space.reference_index()
    row_of = factors.row_of

    table = mdp.PolicyTable(
        np.random.default_rng(seed).integers(len(actions), size=space.n_states), actions
    )
    assert_quotient(
        chain_oracle.policy_chain_matrix(table, factors, start),
        mdp.policy_chain_matrix(table, space),
        (table.action_index, row_of),
        cost,
    )
    weights = pol.randomized_action_weights(p[:n], m, actions)
    assert_quotient(
        chain_oracle.mixture_chain_matrix(weights, factors, actions, start),
        mdp.mixture_chain_matrix([(weights, 0)], space, actions),
        (np.zeros_like(row_of), row_of),
        cost,
    )
    cursor = np.repeat(np.arange(n), space.n_states)
    assert_quotient(
        chain_oracle.round_robin_chain(space, factors, n, m),
        pol.round_robin_chain(space),
        (cursor, np.tile(row_of, n)),
        cost,
        copies=n,
    )


# two sensors, one with Markov arrivals, each with a buffer cap unlike its
# monitor cap and unlike the other's
UNEQUAL_CAPS = a.SystemSpec(
    (
        _sensor(a.BernoulliArrival(0.6), 0.3, 0.9, 3, 1),
        _sensor(a.MarkovArrival(0.5, 0.7), 0.5, 1.0, 0, 3),
    ),
    a.ChannelSpec(0.4, 0.7),
    1,
)

# four sensors and a budget of two: round robin's cursor visits 0 and 2 only
FOUR_OF_TWO = a.SystemSpec(
    tuple(_sensor(a.BernoulliArrival(rate), 0.4, 0.9, 1, 2) for rate in (0.8, 0.6, 0.5, 0.3)),
    a.ChannelSpec(0.45, 0.75),
    2,
)


@pytest.mark.filterwarnings("ignore::scipy.sparse.linalg.MatrixRankWarning")
@settings(max_examples=60, deadline=None, derandomize=True)
@given(chain_systems(), st.lists(PROBS, min_size=4, max_size=4))
@example(MARKOV_M2, [0.6, 0.3, 0.5, 0.0])
@example(STUCK_MARKOV, [0.5, 0.5, 0.5, 0.0])
@example(UNEQUAL_CAPS, [0.7, 0.6, 0.0, 0.0])
@example(FOUR_OF_TWO, [0.9, 0.7, 0.5, 0.4])
def test_per_sensor_costs_are_the_joint_chains_costs(spec, p):
    """Round robin, the thinned randomized schedule and idle cost on their
    per-sensor chains (exact_cost) what their joint chains cost, to
    relative 1e-12: round_robin_chain, and the randomized weights and the
    idle action mixed on the joint space."""
    space = mdp.StateSpace(spec)
    assume(space.n_states <= 2_000)
    n, m = spec.n_sensors, spec.m_budget
    actions = space.action_set
    cost = mdp.cost_vector(space)
    weights = pol.randomized_action_weights(p[:n], m, actions)
    idle = np.eye(len(actions))[actions.index((0,) * n)]
    joint = [
        (pol.RoundRobinPolicy(n, m), pol.round_robin_chain(space)),
        (
            pol.RandomizedSchedule(p[:n], m),
            mdp.mixture_chain_matrix([(weights, 0)], space, actions),
        ),
        (pol.IdlePolicy(n), mdp.mixture_chain_matrix([(idle, 0)], space, actions)),
    ]
    for policy, chain in joint:
        try:
            want = mdp.chain_average_cost(chain, cost)
        except RuntimeError:
            # two closed classes: the joint chain has no one long-run cost
            continue
        got = pol.exact_cost(policy, space)
        assert got == pytest.approx(want, rel=1e-12, abs=0), policy.name


def test_stuck_channel_kernels_store_explicit_zeros():
    """The kappa00 = 1 example above exercises explicit zeros: the kernels
    store them, in the bad-channel (theta = 0) rows' steps to the good
    state, and csgraph's search follows them to good-channel states."""
    space = mdp.StateSpace(STUCK_MARKOV)
    actions = space.action_set
    kernels = mdp.build_kernels(space)
    ((_, mats),), = kernels.shares
    assert all(np.any(rows0.data == 0.0) for rows0, _ in mats)
    assert not any(np.any(rows1.data == 0.0) for _, rows1 in mats)
    idle = mdp.PolicyTable(np.zeros(space.n_states, dtype=np.intp), actions)
    chain = mdp.policy_chain_matrix(idle, space)
    assert np.any(chain.rep.data == 0.0)
    # a row's entries that step to one key only by explicit zeros still
    # store their zero sum in the lumped chain
    assert np.any(chain.p.data == 0.0)
    assert np.any(chain.rep.indices % 2 == 1)  # theta, the fastest index digit, is 1


def compare_argv(tmp_path, policies):
    return ["compare", "--config", str(TWOSENSOR), "--policies", ",".join(policies),
            "--horizon", "50", "--replications", "2", "--out", str(tmp_path)]


def test_compare_solves_each_chain_once_on_reachable_states(tmp_path, monkeypatch):
    """A twosensor compare of all eight policies makes one stationary solve
    per chain, each on a chain of exactly the keys reached from its start's
    key, one state per key: a chain over the whole grid, or over the
    reached states, fails this. So the solve needs no search of its own.
    A policy that reads the state has one chain, and round robin, the
    randomized schedule and idle one per sensor (exact_chains)."""
    solved = []
    solve = mdp.stationary_distribution

    def recorded_solve(p):
        solved.append(p)
        return solve(p)

    monkeypatch.setattr(mdp, "stationary_distribution", recorded_solve)
    with recorded_chains() as built:
        assert cli.main(compare_argv(tmp_path, pol.POLICY_NAMES)) == 0
    # five table policies' chains, and each sensor's of rr, rand and idle
    assert len(solved) == len(built) == 5 + 3 * 2
    for (chain, start, keys, states), p in zip(built, solved):
        assert p is chain.p
        reached = breadth_first_order(as_scipy(p), start, return_predecessors=False)
        assert p.shape[0] == keys == len(reached)
        assert keys < states


@settings(max_examples=60, deadline=None, derandomize=True)
@given(chain_systems(), st.integers(0, 2**32 - 1), st.booleans())
@example(STUCK_MARKOV, 3, True)
def test_factor_rows_are_kernel_rows_bit_for_bit(spec, seed, chunked):
    """Any rows, in any order, under any action, are those rows of
    kernel_rows byte for byte; chunked, both fill blocks of a few rows."""
    space = mdp.StateSpace(spec)
    assume(space.n_states <= 3_000)
    actions = space.action_set
    with pytest.MonkeyPatch.context() as mp:
        if chunked:
            mp.setattr(mdp, "TABLE_CHUNK", 8)
        factors = space.factors
        parts, n_rows = kernel_rows(space), factors.n_rows
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

    def counted(space):
        calls.append(space.n_states)
        return build(space)

    monkeypatch.setattr(mdp, "build_kernels", counted)
    assert cli.main(compare_argv(tmp_path, policies)) == 0
    assert len(calls) == builds


def test_compare_builds_the_joint_factors_once(tmp_path, monkeypatch):
    """The optimal solve and the exact evaluations of one compare share the
    factors of the joint model's closed sub-grid; the myopic model's have
    another state count."""
    joint = mdp.StateSpace(cli.load_config(str(TWOSENSOR)).system, closed=True).n_states
    calls = []
    build = mdp.build_factors

    def counted(space):
        calls.append(space.n_states)
        return build(space)

    monkeypatch.setattr(mdp, "build_factors", counted)
    assert cli.main(compare_argv(tmp_path, pol.POLICY_NAMES)) == 0
    assert calls.count(joint) == 1


def test_solve_optimal_builds_the_factors_once(tmp_path, monkeypatch):
    """solve --policy optimal builds the factors of each space it solves
    on once: the closed sub-grid's, for RVI to convergence, and then the
    full grid's, for the catch-up sweeps. It builds one set of full-grid
    successor tables, which the sensor graphs, the closed space's closures
    and the full grid's factors all read."""
    system = cli.load_config(str(TWOSENSOR)).system
    closed, joint = mdp.StateSpace(system, closed=True).n_states, mdp.StateSpace(system).n_states
    calls, tables = [], []
    build, successor_table = mdp.build_factors, mdp._successor_table

    def counted(space):
        calls.append(space.n_states)
        return build(space)

    def counted_table(space, i, scheduled):
        tables.append((space.n_states, i, scheduled))
        return successor_table(space, i, scheduled)

    monkeypatch.setattr(mdp, "build_factors", counted)
    monkeypatch.setattr(mdp, "_successor_table", counted_table)
    argv = ["solve", "--config", str(TWOSENSOR), "--policy", "optimal", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    assert calls == [closed, joint]
    one_set = [(i, scheduled) for i in range(system.n_sensors) for scheduled in (False, True)]
    assert [(i, s) for n, i, s in tables if n == joint] == one_set
    assert [(i, s) for n, i, s in tables if n == closed] == one_set


def test_compare_frees_joint_kernels_before_the_first_evaluation(tmp_path, monkeypatch):
    built, alive = [], []
    build, solve = mdp.build_kernels, mdp.stationary_distribution

    def tracked(*args):
        kernels = build(*args)
        built.append(weakref.ref(kernels))
        return kernels

    def checked(p):
        alive.append([ref() is not None for ref in built])
        return solve(p)

    monkeypatch.setattr(mdp, "build_kernels", tracked)
    monkeypatch.setattr(mdp, "stationary_distribution", checked)
    assert cli.main(compare_argv(tmp_path, pol.POLICY_NAMES)) == 0
    assert len(built) == 1
    assert alive[0] == [False]
