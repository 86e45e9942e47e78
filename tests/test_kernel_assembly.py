"""The direct CSR kernel assembly against a state-by-state oracle, and the
solvers routed through it (myopic reduction, SISP persistence count).

Byte identity, not closeness, is asserted: the optimal policy has exactly
tied actions, and a last-bit difference in a kernel entry can flip them.
"""

import io
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import sparse

import aoisched as a
from aoisched import cli, decomposed, mdp, policies as pol, sim

from conftest import action_at

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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
    """Every assembled kernel rows[a][row_of] equals the oracle's, dtype too."""
    space = mdp.StateSpace(spec)
    actions = mdp.ActionSet(spec.n_sensors, spec.m_budget)
    built = mdp.build_kernels(mdp.build_factors(spec, space), space, actions)
    expected = oracle_kernels(spec, space, actions)
    assert len(built) == len(expected) == len(actions)
    assert built.row_of.shape == (space.n_states,)
    for a, o in enumerate(expected):
        assert built.rows[a].shape == (built.n_rows, space.n_states)
        k = built.rows[a][built.row_of]
        assert k.shape == o.shape
        for got, want in ((k.indptr, o.indptr), (k.indices, o.indices), (k.data, o.data)):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(KERNEL_SYSTEMS))
def test_kernels_byte_identical_to_oracle(name):
    assert_kernels_match_oracle(KERNEL_SYSTEMS[name])


def assert_canonical_stochastic_csr(k):
    assert k.indices.dtype == k.indptr.dtype == np.int32
    assert k.has_canonical_format
    # strictly increasing columns within every row
    row_start = np.zeros(k.nnz, dtype=bool)
    row_start[k.indptr[:-1][np.diff(k.indptr) > 0]] = True
    assert np.all(np.diff(k.indices)[~row_start[1:]] > 0)
    assert np.all(k.data != 0.0)
    assert np.all(np.diff(k.indptr) > 0)
    assert np.abs(np.asarray(k.sum(axis=1)).ravel() - 1.0).max() <= 1e-12


@pytest.mark.parametrize("name", sorted(KERNEL_SYSTEMS))
def test_kernels_are_canonical_stochastic_csr(name):
    """The builder sorts by construction, with no sum_duplicates pass, and
    the expansion by row_of keeps that."""
    spec = KERNEL_SYSTEMS[name]
    space = mdp.StateSpace(spec)
    actions = mdp.ActionSet(spec.n_sensors, spec.m_budget)
    kernels = mdp.build_kernels(mdp.build_factors(spec, space), space, actions)
    # row_of reaches every distinct row
    assert np.array_equal(np.unique(kernels.row_of), np.arange(kernels.n_rows))
    for rows in kernels:
        assert_canonical_stochastic_csr(rows)
        assert_canonical_stochastic_csr(rows[kernels.row_of])


@pytest.mark.parametrize(
    "config, n_rows, n_states, nnz, assembled_nnz",
    [
        ("twosensor", 3_528, 6_272, 108_864, 192_640),
        # 42 of 56 sub-indices per sensor: 2 * 42**3 of 2 * 56**3
        ("threesensor", 148_176, 351_232, 15_579_648, 36_628_480),
    ],
)
def test_distinct_row_counts(config, n_rows, n_states, nnz, assembled_nnz):
    system = cli.load_config(str(CONFIGS / f"{config}.yaml")).system
    space = mdp.StateSpace(system)
    actions = mdp.ActionSet(system.n_sensors, system.m_budget)
    kernels = mdp.build_kernels(mdp.build_factors(system, space), space, actions)
    assert (kernels.n_rows, space.n_states) == (n_rows, n_states)
    assert sum(rows.nnz for rows in kernels) == nnz
    assert sum(int(np.diff(rows.indptr)[kernels.row_of].sum()) for rows in kernels) == assembled_nnz


# probabilities that include the ends, so successor lists merge and differ
# in length, and the per-sensor tables carry padding
ENDS = st.sampled_from([0.0, 1.0])
PROBS = st.one_of(ENDS, st.floats(0.0, 1.0))


@st.composite
def small_systems(draw, split=False):
    """Systems with N <= 3 and caps <= 3. With split, sensor 1 has
    max_aoli != max_aori and a success probability of 0 or 1, so its idle
    and transmit tables repeat over different sub-indices and only classes
    pooled over both decisions give the right rows."""
    n = draw(st.integers(1, 3))
    sensors = []
    for i in range(n):
        if draw(st.booleans()):
            arrival = a.MarkovArrival(draw(PROBS), draw(PROBS))
        else:
            arrival = a.BernoulliArrival(draw(PROBS))
        p0, p1 = draw(PROBS), draw(PROBS)
        max_aoli, max_aori = draw(st.integers(0, 3)), draw(st.integers(1, 3))
        if split and i == 0:
            max_aori = draw(st.integers(1, 3).filter(lambda cap: cap != max_aoli))
            p0, p1 = (draw(ENDS), p1) if draw(st.booleans()) else (p0, draw(ENDS))
        sensors.append(_sensor(arrival, p0, p1, max_aoli, max_aori))
    channel = a.ChannelSpec(draw(st.floats(0.01, 0.99)), draw(st.floats(0.01, 0.99)))
    return a.SystemSpec(tuple(sensors), channel, draw(st.integers(1, n)))


def assume_oracle_is_quick(spec):
    space = mdp.StateSpace(spec)
    # the oracle takes about 0.2 ms per state and action
    assume(space.n_states * len(mdp.ActionSet(spec.n_sensors, spec.m_budget)) <= 1500)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(small_systems(), st.integers(1, 40))
def test_kernels_byte_identical_to_oracle_on_random_systems(spec, chunk):
    assume_oracle_is_quick(spec)
    # a chunk of a few rows fills the kernels a leading sub-index at a time
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mdp, "TABLE_CHUNK", chunk)
        assert_kernels_match_oracle(spec)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_systems(split=True))
def test_kernels_byte_identical_to_oracle_where_decisions_split(spec):
    assume_oracle_is_quick(spec)
    assert_kernels_match_oracle(spec)


def oracle_rvi(kernels, cost, ref_index, epsilon, max_iter):
    """RVI backing up assembled kernels, Theta_a = cost + K_a @ q, with the
    same stopping rule: (values, gain, iterations, actions), or None if
    max_iter runs out."""
    q = np.zeros(len(cost))
    theta_stack = np.empty((len(kernels), len(cost)))
    for it in range(max_iter):
        for a_idx, k in enumerate(kernels):
            theta_stack[a_idx] = cost + k @ q
        q_next = theta_stack.min(axis=0)
        gain = q_next[ref_index]
        q_next -= gain
        sup_diff = np.max(np.abs(q_next - q))
        q = q_next
        if sup_diff <= epsilon:
            return q, float(gain), it + 1, theta_stack.argmin(axis=0)
    return None


RVI_MAX_ITER = 3000


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_systems())
def test_rvi_on_distinct_rows_matches_assembled_kernels(spec):
    """Identical rows give identical sums, so every value, the gain, the
    iteration count and every argmin, ties included, are the same."""
    space = mdp.StateSpace(spec)
    assume(space.n_states <= 3000)
    actions = mdp.ActionSet(spec.n_sensors, spec.m_budget)
    kernels = mdp.build_kernels(mdp.build_factors(spec, space), space, actions)
    cost = mdp.cost_vector(space, spec)
    ref = space.reference_index()
    assembled = [rows[kernels.row_of] for rows in kernels]
    want = oracle_rvi(assembled, cost, ref, 1e-9, RVI_MAX_ITER)
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mdp, "RVI_MAX_ITER", RVI_MAX_ITER)
            vt, pi = mdp.relative_value_iteration(kernels, cost, ref)
    except a.ConvergenceError:
        assert want is None
        return
    assert want is not None
    values, gain, iterations, policy = want
    assert np.array_equal(vt.values.view(np.int64), values.view(np.int64))
    assert vt.gain == gain
    assert vt.iterations == iterations
    assert np.array_equal(pi, policy)


def test_rvi_argmin_reads_the_rounded_sums_with_cost():
    """State 1 costs 1e16, whose ulp is 2, and its actions back up 0.5
    (action 0, through state 2) and 0 (action 1, to the reference state).
    The sums with cost tie at 1e16, so the argmin takes action 0, although
    the backups alone differ and would pick action 1."""
    to_ref = [1.0, 0.0, 0.0]
    kernels = mdp.Kernels(
        (
            np.array([to_ref, [0.0, 0.0, 1.0], to_ref]),
            np.array([to_ref, to_ref, to_ref]),
        ),
        np.arange(3),
    )
    cost = np.array([0.0, 1e16, 0.5])
    want = oracle_rvi(list(kernels), cost, 0, 1e-9, RVI_MAX_ITER)
    vt, pi = mdp.relative_value_iteration(kernels, cost, 0)
    assert vt.values.tolist() == want[0].tolist() == [0.0, 1e16, 0.5]
    assert pi.tolist() == want[3].tolist() == [0, 0, 0]


def split_solve(spec, workers, chunk):
    """kernel_rows, build_kernels and RVI with `workers` CPUs and a
    TABLE_CHUNK of `chunk` rows: (parts, kernels, (values, gain, iterations,
    actions) or None if RVI_MAX_ITER runs out)."""
    space = mdp.StateSpace(spec)
    actions = mdp.ActionSet(spec.n_sensors, spec.m_budget)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mdp, "TABLE_CHUNK", chunk)
        mp.setattr(mdp, "_worker_count", lambda: workers)
        mp.setattr(mdp, "RVI_MAX_ITER", RVI_MAX_ITER)
        factors = mdp.build_factors(spec, space)
        parts = factors.row_of, factors.n_rows, mdp.kernel_rows(factors, actions)
        kernels = mdp.build_kernels(factors, space, actions)
        cost = mdp.cost_vector(space, spec)
        try:
            vt, pi = mdp.relative_value_iteration(kernels, cost, space.reference_index())
        except a.ConvergenceError:
            return parts, kernels, None
    return parts, kernels, (vt.values, vt.gain, vt.iterations, pi)


# one sensor whose ages never leave (0, 1): two distinct rows, so three
# workers cut them into three blocks and at least one is empty
TWO_ROWS = a.SystemSpec(
    (_sensor(a.BernoulliArrival(0.7), 0.4, 0.9, 0, 1),), a.ChannelSpec(0.5, 0.8), 1
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.booleans().flatmap(lambda split: small_systems(split=split)),
       st.sampled_from([2, 3]), st.integers(1, 4))
@example(TWO_ROWS, 3, 1)
def test_split_work_is_the_one_worker_work_bit_for_bit(spec, workers, chunk):
    """Actions built in a pool and RVI backed up by row blocks give the
    one-worker run's kernel bytes, raw value bits, gain, iteration count and
    table, also where a block is empty."""
    assume(mdp.StateSpace(spec).n_states <= 3000)
    (row_of, n_rows, parts), kernels, solved = split_solve(spec, workers, chunk)
    (want_row_of, want_n_rows, want_parts), serial, want = split_solve(spec, 1, chunk)
    assert serial.blocks == ()
    assert len(kernels.blocks) == (workers if n_rows > chunk else 0)
    if kernels.blocks:
        assert kernels.blocks[-1][1] == n_rows
    if spec is TWO_ROWS:
        assert any(lo == hi for lo, hi, _ in kernels.blocks)
    assert np.array_equal(row_of, want_row_of) and n_rows == want_n_rows
    for got_part, want_part in zip(parts, want_parts, strict=True):
        for got, arr in zip(got_part, want_part):
            assert got.dtype == arr.dtype and got.tobytes() == arr.tobytes()
    assert (solved is None) == (want is None)
    if want is not None:
        values, gain, iterations, policy = solved
        assert np.array_equal(values.view(np.int64), want[0].view(np.int64))
        assert (gain, iterations) == want[1:3]
        assert np.array_equal(policy, want[3])


def test_rvi_joins_its_threads_when_it_fails(monkeypatch):
    monkeypatch.setattr(mdp, "TABLE_CHUNK", 4)
    monkeypatch.setattr(mdp, "_worker_count", lambda: 3)
    monkeypatch.setattr(mdp, "RVI_MAX_ITER", 1)
    spec = markov3_system(1)
    space = mdp.StateSpace(spec)
    kernels = mdp.build_kernels(mdp.build_factors(spec, space), space, mdp.ActionSet(3, 1))
    assert len(kernels.blocks) == 3
    before = threading.active_count()
    with pytest.raises(a.ConvergenceError):
        mdp.relative_value_iteration(kernels, mdp.cost_vector(space, spec), space.reference_index())
    assert threading.active_count() == before


@settings(max_examples=100, deadline=None, derandomize=True)
@given(small_systems(), st.integers(0, 2**32 - 1))
def test_padded_product_is_scipy_product_bit_for_bit(spec, seed):
    """PaddedRows adds in csr_matvec's order, so every backup, with negative
    entries and exact zeros in q, has scipy's bits."""
    space = mdp.StateSpace(spec)
    assume(space.n_states <= 3000)
    actions = mdp.ActionSet(spec.n_sensors, spec.m_budget)
    csr = mdp.build_kernels(mdp.build_factors(spec, space), space, actions)
    padded = mdp.build_padded_kernels(spec, space, actions)
    assert np.array_equal(padded.row_of, csr.row_of)
    rng = np.random.default_rng(seed)
    q = rng.normal(scale=10.0, size=space.n_states)
    q[rng.random(space.n_states) < 0.2] = 0.0
    for a_idx in range(len(actions)):
        assert padded.rows[a_idx].shape == csr.rows[a_idx].shape
        want = csr.rows[a_idx] @ q
        got = padded.rows[a_idx] @ q
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("config", ["twosensor", "threesensor"])
def test_myopic_solve_is_the_scipy_solve_bit_for_bit(config):
    """The myopic model on PaddedRows gives solve_optimal_policy's values,
    gain, iteration count and table on the shipped configs."""
    system = cli.load_config(str(CONFIGS / f"{config}.yaml")).system
    reduced = pol.myopic_system(system)
    space, actions, vt, pt = mdp.solve_optimal_policy(reduced)
    kernels = mdp.build_padded_kernels(reduced, space, actions)
    got, _ = mdp.relative_value_iteration(
        kernels, mdp.cost_vector(space, reduced), space.reference_index()
    )
    assert got.values.tobytes() == vt.values.tobytes()
    assert got.iterations == vt.iterations
    policy = pol.build_myopic_policy(system)
    assert policy.gain == vt.gain
    assert policy.space.n_states == space.n_states
    assert np.array_equal(policy.table.action_index, pt.action_index)


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
    policy = pol.build_myopic_policy(spec)
    full = mdp.StateSpace(spec)
    table = pol.policy_to_table(policy, full, mdp.ActionSet(spec.n_sensors, spec.m_budget))
    for idx in range(full.n_states):
        js = full.decode(idx)
        reduced = a.JointState(
            tuple(a.SensorState(0, st.aori) for st in js.sensors),
            js.theta,
            (True,) * spec.n_sensors,
        )
        assert action_at(table, idx) == action_at(policy.table, policy.space.encode(reduced))


@pytest.mark.parametrize(
    "spec, copied", [(markov3_system(1), 736), (bern2_system(), 276)]
)
def test_pruning_count_matches_recorded(spec, copied):
    """Counts recorded from the state-by-state pruned construction it replaced."""
    space = mdp.StateSpace(spec)
    actions = mdp.ActionSet(spec.n_sensors, spec.m_budget)
    values = decomposed.solve_sisp_values(spec, decomposed.default_randomized_probs(spec))
    plain = decomposed.build_policy_table(values, space, actions)
    pruned, n_copied, violations = decomposed.build_policy_table_with_pruning(
        values, space, actions
    )
    assert n_copied == copied
    assert violations.size == 0
    assert np.array_equal(plain.action_index, pruned.action_index)


# markov3_system(2) as a config file
MARKOV3_M2_YAML = textwrap.dedent(
    """
    channel: {kappa00: 0.45, kappa11: 0.75}
    budget: 2
    sensors:
      - arrival: {kind: bernoulli, rate: 0.8}
        penalty: {kind: exponential, r: 0.5}
        p0: 0.3
        p1: 1.0
        max_aoli: 2
        max_aori: 3
      - arrival: {kind: markov, stay_empty: 0.6, stay_active: 0.7}
        penalty: {kind: exponential, r: 0.7}
        p0: 0.5
        p1: 0.9
        max_aoli: 1
        max_aori: 3
      - arrival: {kind: bernoulli, rate: 0.5}
        penalty: {kind: exponential, r: 0.3}
        p0: 0.6
        p1: 1.0
        max_aoli: 2
        max_aori: 2
    """
)


def test_pruning_reports_persistence_violations(tmp_path, capsys):
    # with M=2 a copied pair can differ from the argmin: the sensor stays
    # scheduled one monitor-age step up, but its partner changes
    spec = markov3_system(2)
    space = mdp.StateSpace(spec)
    actions = mdp.ActionSet(3, 2)
    values = decomposed.solve_sisp_values(spec, decomposed.default_randomized_probs(spec))
    table, _, violations = decomposed.build_policy_table_with_pruning(
        values, space, actions
    )
    assert len(violations) == 4
    assert np.all(np.diff(violations) > 0)
    plain = decomposed.build_policy_table(values, space, actions)
    assert np.array_equal(table.action_index, plain.action_index)

    # solve writes that argmin table and reports the count
    path = tmp_path / "m2.yaml"
    path.write_text(MARKOV3_M2_YAML)
    assert cli.load_config(str(path)).system == spec
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", str(path), "--policy", "sisp", "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert f"threshold persistence fails at 4 states, first state {violations[0]};" in err
    expected = b"".join(mdp.table_rows(space, None, plain))
    written = (out / "sisp_table.csv").read_bytes()
    assert written.split(b"\n", 1)[1] == expected
    header, row = (out / "sisp_summary.csv").read_text().splitlines()[1:]
    summary = dict(zip(header.split(","), row.split(",")))
    assert summary["persistence_violations"] == "4"
    # the summed per-sensor gains: the randomized policy's cost, not SISP's
    assert summary["randomized_gain"] == cli._fmt(sum(v.gain for v in values))


def test_sisp_policy_simulates_like_its_table():
    """monte_carlo with SispPolicy against the tabulated SISP, on the system
    where persistence fails: means and lane 0's trajectory, bit for bit."""
    spec = markov3_system(2)
    space = mdp.StateSpace(spec)
    values = decomposed.solve_sisp_values(spec, decomposed.default_randomized_probs(spec))
    table = decomposed.build_policy_table(values, space, mdp.ActionSet(3, 2))
    policies = [decomposed.SispPolicy(values), pol.TablePolicy("sisp", space, table)]
    sinks = [io.StringIO(), io.StringIO()]
    plan = sim.ExperimentPlan(spec, policies, 400, 5, 7, warmup=25)
    direct, tabulated = sim.monte_carlo(plan, sinks)
    assert direct.rep_means.tobytes() == tabulated.rep_means.tobytes()
    assert direct.mean == tabulated.mean
    rows = [sink.getvalue().splitlines() for sink in sinks]
    assert len(rows[0]) == 400 * 3
    assert rows[0] == rows[1]
