"""The chain builders against the whole chain: each policy's chain is built
over the states reachable from the start only, byte for byte the whole
chain restricted to csgraph's reachable set, with bit-identical exact costs.

The whole chains are assembled here, from each kernel's rows[a][row_of], as the
builders assembled them before they restricted themselves: the table's
rows gathered from a stack of every action's kernel, the mixture summed in
action order, and round robin's cursor blocks joined by sparse.bmat.
"""

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

from test_kernel_assembly import PROBS, _sensor, small_systems

TWOSENSOR = Path(__file__).resolve().parents[1] / "configs" / "twosensor.yaml"


def stuck_channel(kappa11):
    """A channel that never leaves the bad state. ChannelSpec refuses
    kappa00 = 1, so it is set past the check; the kernels then store
    explicit zeros for the bad-to-good step."""
    channel = a.ChannelSpec(0.5, kappa11)
    object.__setattr__(channel, "kappa00", 1.0)
    return channel


def whole_table_chain(kernels, action_index):
    n = len(kernels.row_of)
    stacked = sparse.vstack([rows[kernels.row_of] for rows in kernels], format="csr")
    return stacked[action_index * n + np.arange(n)]


def whole_mixture_chain(kernels, weights):
    out = None
    for rows, w in zip(kernels, weights):
        if w == 0.0:
            continue
        term = w * rows[kernels.row_of]
        out = term if out is None else out + term
    return out.tocsr()


def whole_round_robin_chain(kernels, n, m):
    actions = mdp.ActionSet(n, m)
    blocks = [[None] * n for _ in range(n)]
    for cursor in range(n):
        action, nxt = pol.round_robin_decide(cursor, n, m)
        blocks[cursor][nxt] = kernels.rows[actions.index(action)][kernels.row_of]
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
    kernels = mdp.build_kernels(spec, space, actions)
    cost = mdp.cost_vector(space, spec)
    start = space.reference_index()

    table = np.random.default_rng(seed).integers(len(actions), size=space.n_states)
    assert_restricted(
        whole_table_chain(kernels, table),
        start,
        cost,
        mdp.policy_chain_matrix(mdp.PolicyTable(table, actions), kernels, start),
    )
    weights = pol.randomized_action_weights(p[:n], m, actions)
    assert_restricted(
        whole_mixture_chain(kernels, weights),
        start,
        cost,
        mdp.mixture_chain_matrix(weights, kernels, start),
    )
    assert_restricted(
        whole_round_robin_chain(kernels, n, m),
        start,
        np.tile(cost, n),
        pol.round_robin_chain(space, kernels, n, m),
    )


def test_stuck_channel_kernels_store_explicit_zeros():
    """The kappa00 = 1 example above exercises explicit zeros: the kernels
    store them, and csgraph's search follows them to good-channel states."""
    space = mdp.StateSpace(STUCK_MARKOV)
    actions = mdp.ActionSet(2, 1)
    kernels = mdp.build_kernels(STUCK_MARKOV, space, actions)
    assert all(np.any(rows.data == 0.0) for rows in kernels)
    idle = mdp.PolicyTable(np.zeros(space.n_states, dtype=np.intp), actions)
    p, states = mdp.policy_chain_matrix(idle, kernels, space.reference_index())
    assert np.any(p.data == 0.0)
    assert np.any(states % 2 == 1)  # theta, the fastest index digit, is 1


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
    argv = ["compare", "--config", str(TWOSENSOR), "--policies", ",".join(pol.POLICY_NAMES),
            "--horizon", "50", "--replications", "2", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    assert len(calls) == len(pol.POLICY_NAMES)
    for rows, reached in calls:
        assert reached == rows
