"""The direct CSR kernel assembly against a state-by-state oracle, and the
solvers routed through it (myopic reduction, SISP persistence count).

Byte identity, not closeness, is asserted: the optimal policy has exactly
tied actions, and a last-bit difference in a kernel entry can flip them.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import sparse

import aoisched as a
from aoisched import decomposed, mdp, policies as pol


def oracle_kernels(spec, space, actions):
    """Kernels from transition_distribution, one state at a time."""
    kernels = []
    for action in actions.actions:
        rows, cols, vals = [], [], []
        for idx in range(space.n_states):
            for nxt, prob in mdp.transition_distribution(space.decode(idx), action, spec):
                rows.append(idx)
                cols.append(space.encode(nxt))
                vals.append(prob)
        n = space.n_states
        mat = sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
        mat.sum_duplicates()
        kernels.append(mat)
    return kernels


def _sensor(arrival, p0, p1, max_aoli, max_aori, r=0.5):
    return a.SensorSpec(arrival, a.ExponentialPenalty(r), p0, p1, max_aoli, max_aori)


def markov3_system(m):
    """Three sensors, one with Markov arrivals; success 1.0 in the good state."""
    return a.SystemSpec(
        (
            _sensor(a.BernoulliArrival(0.8), 0.3, 1.0, 2, 3),
            _sensor(a.MarkovArrival(0.6, 0.7), 0.5, 0.9, 1, 3, r=0.7),
            _sensor(a.BernoulliArrival(0.5), 0.6, 1.0, 2, 2, r=0.3),
        ),
        a.ChannelSpec(0.45, 0.75),
        m,
    )


def bern2_system():
    return a.SystemSpec(
        (
            _sensor(a.BernoulliArrival(0.9), 0.5, 1.0, 3, 4),
            _sensor(a.BernoulliArrival(0.6), 0.4, 0.8, 3, 4, r=0.8),
        ),
        a.ChannelSpec(0.5, 0.8),
        1,
    )


KERNEL_SYSTEMS = {
    "one-bernoulli": a.SystemSpec(
        (_sensor(a.BernoulliArrival(0.7), 0.4, 0.9, 3, 4),), a.ChannelSpec(0.5, 0.8), 1
    ),
    "one-markov-no-buffer-age": a.SystemSpec(
        (_sensor(a.MarkovArrival(0.3, 0.8), 0.2, 1.0, 0, 5),), a.ChannelSpec(0.4, 0.7), 1
    ),
    "two-certain-arrivals": a.SystemSpec(
        (
            _sensor(a.BernoulliArrival(1.0), 1.0, 1.0, 2, 3),
            _sensor(a.MarkovArrival(0.5, 0.8), 0.5, 1.0, 2, 3),
        ),
        a.ChannelSpec(0.45, 0.75),
        2,
    ),
    "three-m1": markov3_system(1),
    "three-m2": markov3_system(2),
    "three-myopic-reduction": a.SystemSpec(
        tuple(
            _sensor(a.BernoulliArrival(1.0), p0, 1.0, 0, 3)
            for p0 in (0.3, 0.5, 0.6)
        ),
        a.ChannelSpec(0.45, 0.75),
        2,
    ),
}


def assert_kernels_match_oracle(spec):
    space = mdp.StateSpace(spec)
    actions = mdp.ActionSet(spec.n_sensors, spec.m_budget)
    built = mdp.build_kernels(spec, space, actions)
    expected = oracle_kernels(spec, space, actions)
    assert len(built) == len(expected) == len(actions)
    for k, o in zip(built, expected):
        assert k.shape == o.shape
        for got, want in ((k.indptr, o.indptr), (k.indices, o.indices), (k.data, o.data)):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(KERNEL_SYSTEMS))
def test_kernels_byte_identical_to_oracle(name):
    assert_kernels_match_oracle(KERNEL_SYSTEMS[name])


@pytest.mark.parametrize("name", sorted(KERNEL_SYSTEMS))
def test_kernels_are_canonical_stochastic_csr(name):
    """The builder sorts by construction, with no sum_duplicates pass."""
    spec = KERNEL_SYSTEMS[name]
    space = mdp.StateSpace(spec)
    for k in mdp.build_kernels(spec, space, mdp.ActionSet(spec.n_sensors, spec.m_budget)):
        assert k.indices.dtype == k.indptr.dtype == np.int32
        assert k.has_canonical_format
        # strictly increasing columns within every row
        row_start = np.zeros(k.nnz, dtype=bool)
        row_start[k.indptr[:-1][np.diff(k.indptr) > 0]] = True
        assert np.all(np.diff(k.indices)[~row_start[1:]] > 0)
        assert np.all(k.data != 0.0)
        assert np.all(np.diff(k.indptr) > 0)
        assert np.abs(np.asarray(k.sum(axis=1)).ravel() - 1.0).max() <= 1e-12


# probabilities that include the ends, so successor lists merge and differ
# in length, and the per-sensor tables carry padding
PROBS = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def small_systems(draw):
    n = draw(st.integers(1, 3))
    sensors = []
    for _ in range(n):
        if draw(st.booleans()):
            arrival = a.MarkovArrival(draw(PROBS), draw(PROBS))
        else:
            arrival = a.BernoulliArrival(draw(PROBS))
        sensors.append(
            _sensor(arrival, draw(PROBS), draw(PROBS), draw(st.integers(0, 3)), draw(st.integers(1, 3)))
        )
    channel = a.ChannelSpec(draw(st.floats(0.01, 0.99)), draw(st.floats(0.01, 0.99)))
    return a.SystemSpec(tuple(sensors), channel, draw(st.integers(1, n)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(small_systems(), st.integers(1, 40))
def test_kernels_byte_identical_to_oracle_on_random_systems(spec, chunk):
    space = mdp.StateSpace(spec)
    # the oracle takes about 0.2 ms per state and action
    assume(space.n_states * len(mdp.ActionSet(spec.n_sensors, spec.m_budget)) <= 1500)
    # a chunk of a few rows fills the kernels a leading sub-index at a time
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mdp, "TABLE_CHUNK", chunk)
        assert_kernels_match_oracle(spec)


@pytest.mark.parametrize(
    "spec, n_states, gain, table",
    [
        (markov3_system(1), 36, 5.350279607405474, "222222222222212122222222212122222222"),
        (bern2_system(), 32, 7.254029808126294, "22222222112222221122222211222222"),
    ],
)
def test_myopic_reduction_matches_recorded_model(spec, n_states, gain, table):
    """Gain and table recorded from the dedicated (aori, theta) solver it replaced."""
    model = pol.build_myopic_policy(spec)
    assert model.space.n_states == n_states
    assert model.gain == gain
    assert "".join(str(k) for k in model.table.action_index) == table


def test_myopic_decide_reads_monitor_ages_and_channel():
    spec = markov3_system(1)
    model = pol.build_myopic_policy(spec)
    policy = pol.MyopicPolicy(model)
    full = mdp.StateSpace(spec)
    for idx in range(full.n_states):
        js = full.decode(idx)
        reduced = a.JointState(
            tuple(a.SensorState(0, st.aori) for st in js.sensors),
            js.theta,
            (True,) * spec.n_sensors,
        )
        assert policy.decide(js) == model.table.action_of(model.space.encode(reduced))


@pytest.mark.parametrize(
    "spec, copied", [(markov3_system(1), 736), (bern2_system(), 276)]
)
def test_pruning_count_matches_recorded(spec, copied):
    """Counts recorded from the state-by-state pruned construction it replaced."""
    space = mdp.StateSpace(spec)
    actions = mdp.ActionSet(spec.n_sensors, spec.m_budget)
    values = decomposed.solve_sisp_values(spec)
    plain = decomposed.build_policy_table(values, space, actions, spec)
    pruned, n_copied = decomposed.build_policy_table_with_pruning(
        values, space, actions, spec
    )
    assert n_copied == copied
    assert np.array_equal(plain.action_index, pruned.action_index)


def test_pruning_raises_when_persistence_fails():
    # with M=2 a copied pair can differ from the argmin: the sensor stays
    # scheduled one monitor-age step up, but its partner changes
    spec = markov3_system(2)
    space = mdp.StateSpace(spec)
    actions = mdp.ActionSet(3, 2)
    values = decomposed.solve_sisp_values(spec)
    with pytest.raises(RuntimeError, match="threshold persistence fails at 4 states"):
        decomposed.build_policy_table_with_pruning(values, space, actions, spec)
