import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import aoisched as a
from aoisched import decomposed, dynamics, mdp

from conftest import (
    VA_CHANNEL, action_at, make_va_sensor, make_va_system, sensor_index, stacked_rows, table_cost
)


@pytest.fixture(scope="module")
def small_system():
    """Asymmetric 2-sensor instance on caps (3,3): 288 joint states."""
    s1 = a.SensorSpec(a.BernoulliArrival(0.8), a.ExponentialPenalty(0.4), 0.3, 0.95, 3, 3)
    s2 = a.SensorSpec(a.BernoulliArrival(0.45), a.ExponentialPenalty(0.7), 0.55, 0.9, 3, 3)
    return a.SystemSpec((s1, s2), a.ChannelSpec(0.45, 0.75), 1)


@pytest.fixture(scope="module")
def small_solution(small_system):
    p_r = decomposed.default_randomized_probs(small_system)
    values = decomposed.solve_sisp_values(small_system, p_r)
    return small_system, values, mdp.StateSpace(small_system)


def test_randomized_policy_validation(small_system):
    """solve_sisp_values refuses probabilities outside (0,1) and a sum over
    the budget."""
    two, channel = small_system.sensors, small_system.channel
    with pytest.raises(ValueError, match=r"must lie in \(0,1\), got 1.0"):
        decomposed.solve_sisp_values(a.SystemSpec(two, channel, 1), (0.5, 1.0))
    with pytest.raises(ValueError, match=r"must lie in \(0,1\), got 0.0"):
        decomposed.solve_sisp_values(a.SystemSpec(two[:1], channel, 1), (0.0,))
    with pytest.raises(ValueError, match="sum of scheduling probabilities 1.2 exceeds budget 1"):
        decomposed.solve_sisp_values(a.SystemSpec(two, channel, 1), (0.6, 0.6))
    values = decomposed.solve_sisp_values(a.SystemSpec(two, channel, 2), (0.6, 0.6))
    assert [pv.p_r for pv in values] == [0.6, 0.6]


def test_default_randomized_probs(va_penalty):
    spec = make_va_system(va_penalty, 0.9, 0.3)
    p = decomposed.default_randomized_probs(spec)
    assert p[0] / p[1] == pytest.approx(3.0)
    assert sum(p) <= spec.m_budget + 1e-12

    # budget 2 with one dominant rate: capped at 0.99 then kept under budget
    spec2 = a.SystemSpec(spec.sensors, spec.channel, 2)
    p2 = decomposed.default_randomized_probs(spec2)
    assert max(p2) <= 0.99
    assert sum(p2) <= 2 + 1e-12

    markov = a.SensorSpec(a.MarkovArrival(0.6, 0.7), va_penalty, 0.5, 1.0, 7, 7)
    spec3 = a.SystemSpec((markov, spec.sensors[1]), spec.channel, 1)
    p3 = decomposed.default_randomized_probs(spec3)
    rates = (0.4 / 0.7, 0.3)
    assert p3[0] / p3[1] == pytest.approx(rates[0] / rates[1])


@pytest.mark.parametrize(
    "arrival", [a.BernoulliArrival(0.9), a.MarkovArrival(0.6, 0.7)], ids=["bernoulli", "markov"]
)
def test_per_sensor_kernel_boundaries(va_penalty, arrival):
    """The numpy-densified per-sensor kernels are the scipy path's
    assembled kernels, byte for byte, whole and a row block at a time."""
    sensor = a.SensorSpec(arrival, va_penalty, 0.5, 1.0, 3, 3)
    system = a.SystemSpec((sensor,), VA_CHANNEL, 1)
    kernels = mdp.build_kernels(mdp.StateSpace(system))
    k_idle, k_tx = (rows[kernels.row_of].toarray() for rows in stacked_rows(kernels))
    space = mdp.sensor_space(sensor, VA_CHANNEL)
    idle, tx = mdp.kernel_rows(space)
    n = space.n_states
    dense_idle, dense_tx = (decomposed._dense_kernel(space, r, 0, n) for r in (idle, tx))
    assert np.array_equal(dense_idle, k_idle)
    assert np.array_equal(dense_tx, k_tx)
    for lo, hi in ((0, 1), (5, 17), (n - 3, n)):
        assert np.array_equal(decomposed._dense_kernel(space, idle, lo, hi), k_idle[lo:hi])
        assert np.array_equal(decomposed._dense_kernel(space, tx, lo, hi), k_tx[lo:hi])
    # the mix solve_per_sensor_value solves on, at p_r = 0.5
    mixed = 0.5 * dense_tx + (1.0 - 0.5) * dense_idle
    assert np.allclose(mixed, 0.5 * k_tx + 0.5 * k_idle)
    assert np.allclose(mixed.sum(axis=1), 1.0, atol=1e-12)


def test_per_sensor_kernel_reference_row(va_penalty):
    # state ((3,5), bad channel), scheduled with probability one half:
    # convex combination of the four transmit cases and two idle cases
    sensor = make_va_sensor(va_penalty, 0.9)
    space = mdp.sensor_space(sensor, VA_CHANNEL)
    rows = mdp.kernel_rows(space)
    k_idle, k_tx = (decomposed._dense_kernel(space, r, 0, space.n_states) for r in rows)
    kernel = 0.5 * k_tx + (1.0 - 0.5) * k_idle  # solve_per_sensor_value's mix
    row_state = dynamics.JointState((dynamics.SensorState(3, 5),), 0, (False,))
    row = kernel[space.encode(row_state)]
    lam, p = 0.9, 0.5

    def at(aoli, aori, theta):
        js = dynamics.JointState((dynamics.SensorState(aoli, aori),), theta, (aoli == 0,))
        return row[space.encode(js)]

    for theta, ch in ((0, 0.5), (1, 0.5)):
        assert at(0, 4, theta) == pytest.approx(ch * 0.5 * lam * p)
        assert at(4, 4, theta) == pytest.approx(ch * 0.5 * (1 - lam) * p)
        # unscheduled (prob .5) and scheduled-but-lost (prob .5 * (1-p)) both age
        assert at(0, 6, theta) == pytest.approx(ch * lam * (0.5 * (1 - p) + 0.5))
        assert at(4, 6, theta) == pytest.approx(ch * (1 - lam) * (0.5 * (1 - p) + 0.5))


def whole_kernel_solve(sensor, p):
    """(values, eq, gain, iterations) by the whole-kernel recipe: the scipy
    kernels assembled dense, mixed as p K_tx + (1 - p) K_idle, RVI on the
    mix, and eq from K_a @ values."""
    space = mdp.StateSpace(a.SystemSpec((sensor,), VA_CHANNEL, 1))
    kernels = mdp.build_kernels(space)
    k_idle, k_tx = (rows[kernels.row_of].toarray() for rows in stacked_rows(kernels))
    mixed = p * k_tx + (1.0 - p) * k_idle
    n = space.n_states
    vt, _ = mdp.relative_value_iteration(
        mdp.Kernels((((0, n, (mixed,)),),), np.arange(n)),
        mdp.cost_vector(space),
        space.reference_index(),
    )
    eq = np.stack([k_idle @ vt.values, k_tx @ vt.values], axis=1)
    return vt.values, eq, vt.gain, vt.iterations


@pytest.mark.parametrize(
    "arrival", [a.BernoulliArrival(0.9), a.MarkovArrival(0.6, 0.7)], ids=["bernoulli", "markov"]
)
def test_per_sensor_solve_is_the_whole_kernel_solve(va_penalty, arrival, monkeypatch):
    """solve_per_sensor_value, which holds one dense kernel at a time and
    mixes it a row block at a time, gives the whole-kernel recipe's values,
    eq, gain and iteration count, bit for bit, on more states than one
    block."""
    sensor = a.SensorSpec(arrival, va_penalty, 0.5, 1.0, 10, 10)
    iterations = []
    solve = decomposed.relative_value_iteration

    def counted(*args):
        vt, policy = solve(*args)
        iterations.append(vt.iterations)
        return vt, policy

    monkeypatch.setattr(decomposed, "relative_value_iteration", counted)
    pv = decomposed.solve_per_sensor_value(sensor, VA_CHANNEL, 0.3)
    assert pv.space.n_states >= 200 > decomposed.MIX_ROWS
    values, eq, gain, its = whole_kernel_solve(sensor, 0.3)
    assert pv.values.tobytes() == values.tobytes()
    assert pv.eq.tobytes() == eq.tobytes()
    assert pv.gain.hex() == gain.hex()
    assert iterations == [its]


def test_per_sensor_solve_holds_one_dense_kernel(va_penalty):
    """One solve at twosensor's first sensor with cap 14 (420 states) peaks
    below two dense 420 x 420 matrices; holding both kernels, the mix and
    a product of one of them, it peaked at four."""
    sensor = make_va_sensor(va_penalty, 0.9, cap=14)
    tracemalloc.start()
    try:
        pv = decomposed.solve_per_sensor_value(sensor, VA_CHANNEL, 0.6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = pv.space.n_states
    assert n == 420
    assert peak < 2 * n * n * 8


def test_per_sensor_value_always_fresh(va_penalty):
    sensor = a.SensorSpec(a.BernoulliArrival(1.0), va_penalty, 1.0, 1.0, 3, 3)
    pv = decomposed.solve_per_sensor_value(sensor, VA_CHANNEL, 1.0)
    assert pv.gain == pytest.approx(va_penalty(1), rel=1e-9)
    # with certain delivery the channel state is irrelevant everywhere, and
    # fresh-buffer states with equal monitor age share one value
    for aoli in range(4):
        for aori in range(1, 4):
            st = dynamics.SensorState(aoli, aori)
            v0 = pv.values[sensor_index(pv, st, 0, aoli == 0)]
            v1 = pv.values[sensor_index(pv, st, 1, aoli == 0)]
            assert v0 == pytest.approx(v1, abs=1e-8)


def test_per_sensor_value_monotone(va_penalty):
    sensor = make_va_sensor(va_penalty, 0.9)
    pv = decomposed.solve_per_sensor_value(sensor, VA_CHANNEL, 0.5)
    violations = mdp.check_value_monotonicity(pv.values, pv.space, 1e-8)
    assert violations == []


def test_per_sensor_gain_matches_simulation(va_penalty):
    """Monte Carlo oracle: one sensor under. a fair-coin schedule.

    Vectorized across 500 replications of 10^4 slots with a 500-slot warmup;
    the decomposed gain must fall inside the 95% interval.
    """
    sensor = make_va_sensor(va_penalty, 0.9)
    pv = decomposed.solve_per_sensor_value(sensor, VA_CHANNEL, 0.5)

    reps, horizon, warmup = 500, 10_000, 500
    rng = np.random.default_rng(20240817)
    f = np.array([va_penalty(d) for d in range(8)])
    stay = np.array([0.5, 0.8])
    p_succ = np.array([0.5, 1.0])
    aoli = np.zeros(reps, dtype=np.int64)
    aori = np.ones(reps, dtype=np.int64)
    theta = np.zeros(reps, dtype=np.int64)
    acc = np.zeros(reps)
    for t in range(1, horizon + 1):
        scheduled = rng.random(reps) < 0.5
        delivered = scheduled & (rng.random(reps) < p_succ[theta])
        arrived = rng.random(reps) < 0.9
        theta = np.where(rng.random(reps) < stay[theta], theta, 1 - theta)
        aori = np.minimum(np.where(delivered, aoli + 1, aori + 1), 7)
        aoli = np.minimum(np.where(arrived, 0, aoli + 1), 7)
        if t > warmup:
            acc += f[aori]
    means = acc / (horizon - warmup)
    ci = 1.96 * means.std(ddof=1) / math.sqrt(reps)
    assert abs(means.mean() - pv.gain) <= ci


def _oracle_theta(state, values, actions, spec):
    """Expand the full joint kernel; independent of the factorized path."""
    out = []
    for act in actions.actions:
        total = mdp.stage_cost(state, spec)
        for nxt, prob in mdp.transition_distribution(state, act, spec):
            summed = sum(
                pv.values[sensor_index(pv, nxt.sensors[i], nxt.theta, nxt.prev_arrival[i])]
                for i, pv in enumerate(values)
            )
            total += prob * summed
        out.append(total)
    return np.array(out)


def test_sisp_decide_matches_joint_expansion(small_solution):
    """The production SISP table against the joint-kernel expansion."""
    system, values, space = small_solution
    table = decomposed.build_policy_table(values, space)
    for idx in range(space.n_states):
        state = space.decode(idx)
        oracle = _oracle_theta(state, values, space.action_set, system)
        best = oracle.min()
        k = table.action_index[space.encode(state)]
        assert oracle[k] <= best + 1e-8
        others = np.delete(oracle, oracle.argmin())
        if others.min() - best > 1e-8:  # unique minimizer: exact agreement
            assert k == oracle.argmin()


# away from 0 and 1, so every arrival rate is positive (the default
# scheduling probabilities need it) and every per-sensor chain mixes
INNER = st.floats(0.05, 0.95)


@st.composite
def sisp_systems(draw):
    """Systems with N <= 3, caps <= 3 and 1 <= M <= N, each sensor with
    Bernoulli or Markov arrivals."""
    n = draw(st.integers(1, 3))
    sensors = []
    for _ in range(n):
        if draw(st.booleans()):
            arrival = a.MarkovArrival(draw(INNER), draw(INNER))
        else:
            arrival = a.BernoulliArrival(draw(INNER))
        penalty = a.ExponentialPenalty(draw(st.floats(0.1, 1.0)))
        caps = draw(st.integers(0, 3)), draw(st.integers(1, 3))
        sensors.append(a.SensorSpec(arrival, penalty, draw(INNER), draw(INNER), *caps))
    channel = a.ChannelSpec(draw(INNER), draw(INNER))
    return a.SystemSpec(tuple(sensors), channel, draw(st.integers(1, n)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(sisp_systems())
def test_sisp_table_is_the_scalar_argmin_on_random_systems(spec):
    """build_policy_table against a scalar argmin at every JointState: each
    action's per-sensor eq entries summed in sensor order, the first
    minimum kept."""
    space = mdp.StateSpace(spec)
    assume(space.n_states <= 1500)
    actions = mdp.ActionSet(spec.n_sensors, spec.m_budget)
    values = decomposed.solve_sisp_values(spec, decomposed.default_randomized_probs(spec))
    table = decomposed.build_policy_table(values, space)
    for idx in range(space.n_states):
        state = space.decode(idx)
        x = [
            sensor_index(pv, st_i, state.theta, arrived)
            for pv, st_i, arrived in zip(values, state.sensors, state.prev_arrival)
        ]
        scores = [
            sum(pv.eq[x_i, bit] for pv, x_i, bit in zip(values, x, action))
            for action in actions.actions
        ]
        assert table.action_index[idx] == scores.index(min(scores)), idx


def test_sisp_decide_swap_equivariance(va_penalty):
    spec = make_va_system(va_penalty, 0.9, 0.9, cap=4)
    values = decomposed.solve_sisp_values(spec, p_r=(0.45, 0.45))
    actions = mdp.ActionSet(2, 1)
    space = mdp.StateSpace(spec)
    table = decomposed.build_policy_table(values, space)
    swap_action = {(0, 0): (0, 0), (1, 0): (0, 1), (0, 1): (1, 0)}
    for idx in range(space.n_states):
        state = space.decode(idx)
        if state.sensors[0] == state.sensors[1]:
            continue  # swap fixed points cannot disambiguate ties
        swapped = dynamics.JointState(
            (state.sensors[1], state.sensors[0]),
            state.theta,
            (state.prev_arrival[1], state.prev_arrival[0]),
        )
        theta = _oracle_theta(state, values, actions, spec)
        gap = np.partition(theta, 1)[1] - theta.min()
        if gap <= 1e-9:
            continue  # near-tie; index tie-breaking is not symmetric
        lhs = action_at(table, space.encode(swapped))
        rhs = swap_action[action_at(table, space.encode(state))]
        assert lhs == rhs


def test_sisp_scheduling_region_is_staircase(va_hetero_solved, va_hetero_sisp):
    """Fixed buffer ages (7, 6), good channel: the region where the SISP
    table schedules each sensor is upward closed in its own monitor age."""
    space = va_hetero_solved.space
    decisions = {}
    for r1 in range(1, 8):
        for r2 in range(1, 8):
            state = dynamics.JointState(
                (dynamics.SensorState(7, r1), dynamics.SensorState(6, r2)),
                1,
                (False, False),
            )
            decisions[(r1, r2)] = action_at(va_hetero_sisp.table, space.encode(state))
    for r1 in range(1, 7):
        for r2 in range(1, 8):
            if decisions[(r1, r2)][0] == 1:
                assert decisions[(r1 + 1, r2)][0] == 1
    for r1 in range(1, 8):
        for r2 in range(1, 7):
            if decisions[(r1, r2)][1] == 1:
                assert decisions[(r1, r2 + 1)][1] == 1


def test_pruned_table_equals_unpruned(small_solution):
    system, values, space = small_solution
    plain = decomposed.build_policy_table(values, space)
    pruned, copied, violations = decomposed.build_policy_table_with_pruning(values, space)
    assert violations.size == 0
    assert np.array_equal(plain.action_index, pruned.action_index)
    assert copied > 0


def test_pruning_impossible_on_minimal_age_range(va_penalty):
    # max_aori = 1 leaves no smaller-age state to copy from
    sensor = a.SensorSpec(a.BernoulliArrival(0.7), va_penalty, 0.4, 0.9, 1, 1)
    system = a.SystemSpec((sensor,), VA_CHANNEL, 1)
    values = decomposed.solve_sisp_values(system, p_r=(0.5,))
    space = mdp.StateSpace(system)
    pruned, copied, violations = decomposed.build_policy_table_with_pruning(values, space)
    assert violations.size == 0
    plain = decomposed.build_policy_table(values, space)
    assert copied == 0
    assert np.array_equal(plain.action_index, pruned.action_index)


def test_threshold_definitional_single_sensor(va_penalty):
    sensor = a.SensorSpec(a.BernoulliArrival(1.0), va_penalty, 1.0, 1.0, 7, 7)
    system = a.SystemSpec((sensor,), VA_CHANNEL, 1)
    values = decomposed.solve_sisp_values(system, p_r=(0.5,))
    table = decomposed.extract_thresholds(values, system)
    pv = values[0]
    for theta in (0, 1):
        expected = math.inf
        for aori in range(1, 8):
            st = dynamics.SensorState(0, aori)
            x = sensor_index(pv, st, theta, True)
            if pv.eq[x, 1] < pv.eq[x, 0]:  # transmit strictly beats idling
                expected = aori
                break
        assert table.thresholds[0, theta] == expected


def test_threshold_good_channel_no_later(va_sisp, va_system):
    table = decomposed.extract_thresholds(va_sisp.values, va_system)
    for i in range(2):
        assert table.thresholds[i, 1] <= table.thresholds[i, 0]


def test_threshold_inf_for_hopeless_sensor(va_penalty):
    # delivery never succeeds, so transmitting is exactly as good as idling
    # and the idle-favoring tie-break never schedules the sensor
    dead = a.SensorSpec(a.BernoulliArrival(0.5), va_penalty, 0.0, 0.0, 7, 7)
    live = make_va_sensor(va_penalty, 0.9)
    system = a.SystemSpec((live, dead), VA_CHANNEL, 1)
    values = decomposed.solve_sisp_values(system, p_r=(0.5, 0.3))
    table = decomposed.extract_thresholds(values, system)
    assert math.isinf(table.thresholds[1, 0])
    assert math.isinf(table.thresholds[1, 1])
    assert not math.isinf(table.thresholds[0, 0])


def test_decomposition_gain_identity(small_solution):
    """Sum of per-sensor gains equals the exact joint randomized cost."""
    _, values, space = small_solution
    p_r = [pv.p_r for pv in values]
    chain = decomposed.randomized_chain_matrix(space, p_r)
    cost = mdp.cost_vector(space)
    joint = mdp.chain_average_cost(chain, cost)
    assert sum(pv.gain for pv in values) == pytest.approx(joint, abs=1e-6)


def _three_sensors(first_arrival):
    """Three sensors, caps (1, 2), M = 2: 128 states with a Bernoulli first
    sensor, 256 with a Markov one."""
    sensors = tuple(
        a.SensorSpec(arrival, a.ExponentialPenalty(r), p0, p1, 1, 2)
        for arrival, r, p0, p1 in (
            (first_arrival, 0.5, 0.3, 0.9),
            (a.BernoulliArrival(0.6), 0.7, 0.5, 0.8),
            (a.BernoulliArrival(0.4), 0.4, 0.6, 0.95),
        )
    )
    return a.SystemSpec(sensors, a.ChannelSpec(0.45, 0.75), 2)


@pytest.mark.parametrize(
    "arrival", [a.BernoulliArrival(0.9), a.MarkovArrival(0.5, 0.8)], ids=["bernoulli", "markov"]
)
def test_randomized_chain_is_the_product_weight_mixture(arrival):
    """randomized_chain_matrix against the mixture of every schedule's kernel
    weighted by prod_i (p_i if scheduled else 1 - p_i), multiplied in sensor
    order, byte for byte. With these p_r three of the eight weights change
    in the last bit if the factors are multiplied in reverse order."""
    system = _three_sensors(arrival)
    space = mdp.StateSpace(system)
    p_r = (0.45, 0.35, 0.3)
    full_actions = mdp.ActionSet(3, 3)
    weights = []
    for action in full_actions.actions:
        w = 1.0
        for i, d in enumerate(action):
            w *= p_r[i] if d else 1.0 - p_r[i]
        weights.append(w)
    expected = mdp.mixture_chain_matrix([(weights, 0)], space, full_actions)
    chain = decomposed.randomized_chain_matrix(space, p_r)
    for matrix in ("p", "rep"):
        for field in ("data", "indices", "indptr"):
            got = getattr(getattr(chain, matrix), field)
            want = getattr(getattr(expected, matrix), field)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (matrix, field)


def test_three_sensor_two_slot_budget():
    """M=2 with three sensors: pruning, dominance and ordering still hold."""
    sensors = tuple(
        a.SensorSpec(a.BernoulliArrival(lam), a.ExponentialPenalty(r), p0, p1, 1, 2)
        for lam, r, p0, p1 in (
            (0.9, 0.5, 0.3, 0.9),
            (0.6, 0.7, 0.5, 0.8),
            (0.4, 0.4, 0.6, 0.95),
        )
    )
    system = a.SystemSpec(sensors, a.ChannelSpec(0.45, 0.75), 2)
    space = mdp.StateSpace(system)
    vt, pt = a.solve_optimal_policy(space)
    assert len(space.action_set) == 1 + 3 + 3
    kernels = mdp.build_kernels(space)
    for k in stacked_rows(kernels):
        assert np.allclose(np.asarray(k.sum(axis=1)).ravel(), 1.0, atol=1e-12)
    cost = mdp.cost_vector(space)

    values = decomposed.solve_sisp_values(system, decomposed.default_randomized_probs(system))
    plain = decomposed.build_policy_table(values, space)
    pruned, copied, violations = decomposed.build_policy_table_with_pruning(values, space)
    assert violations.size == 0
    assert np.array_equal(plain.action_index, pruned.action_index)
    assert copied > 0

    c_opt = table_cost(pt, space, cost)
    c_sisp = table_cost(pruned, space, cost)
    chain = decomposed.randomized_chain_matrix(space, [pv.p_r for pv in values])
    c_rand = mdp.chain_average_cost(chain, cost)
    assert c_opt <= c_sisp + 1e-9 <= c_rand + 1e-9
    assert sum(pv.gain for pv in values) == pytest.approx(c_rand, abs=1e-6)
    assert vt.gain == pytest.approx(c_opt, abs=1e-6)


def test_decomposition_with_markov_arrivals():
    """The per-sensor split stays exact with arrival-memory bits in play."""
    pen = a.ExponentialPenalty(0.5)
    sensors = (
        a.SensorSpec(a.MarkovArrival(0.5, 0.8), pen, 0.4, 0.9, 2, 3),
        a.SensorSpec(a.BernoulliArrival(0.6), pen, 0.5, 1.0, 2, 3),
    )
    spec = a.SystemSpec(sensors, a.ChannelSpec(0.45, 0.75), 1)
    space = mdp.StateSpace(spec)
    p_r = (0.45, 0.5)
    values = decomposed.solve_sisp_values(spec, p_r=p_r)
    cost = mdp.cost_vector(space)
    joint = mdp.chain_average_cost(decomposed.randomized_chain_matrix(space, p_r), cost)
    assert sum(v.gain for v in values) == pytest.approx(joint, abs=1e-6)

    plain = decomposed.build_policy_table(values, space)
    pruned, copied, violations = decomposed.build_policy_table_with_pruning(values, space)
    assert violations.size == 0
    assert np.array_equal(plain.action_index, pruned.action_index)
    assert copied > 0
    assert table_cost(pruned, space, cost) <= joint + 1e-9


def test_sisp_dominates_randomized(small_solution):
    _, values, space = small_solution
    cost = mdp.cost_vector(space)
    table = decomposed.build_policy_table(values, space)
    sisp_cost = table_cost(table, space, cost)
    chain = decomposed.randomized_chain_matrix(space, [pv.p_r for pv in values])
    rand_cost = mdp.chain_average_cost(chain, cost)
    assert sisp_cost <= rand_cost + 1e-9
