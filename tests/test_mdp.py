import itertools
from pathlib import Path

import numpy as np
import pytest

import aoisched as a
from aoisched import cli, dynamics, mdp

from conftest import stacked_rows, table_cost

TWO_SENSOR = Path(__file__).resolve().parents[1] / "configs" / "twosensor.yaml"


def test_state_space_roundtrip_bernoulli(va_system):
    space = mdp.StateSpace(va_system)
    assert space.n_states == 2 * (8 * 7) ** 2 == 6272
    for idx in range(space.n_states):
        assert space.encode(space.decode(idx)) == idx


def test_state_space_roundtrip_with_markov_arrivals(va_penalty):
    markov = a.SensorSpec(a.MarkovArrival(0.6, 0.7), va_penalty, 0.3, 0.9, 2, 3)
    bern = a.SensorSpec(a.BernoulliArrival(0.4), va_penalty, 0.5, 1.0, 1, 2)
    spec = a.SystemSpec((markov, bern), a.ChannelSpec(0.5, 0.8), 1)
    space = mdp.StateSpace(spec)
    # the Markov sensor doubles its block with the arrival-memory bit
    assert space.n_states == 2 * (3 * 3 * 2) * (2 * 2)
    for idx in range(space.n_states):
        assert space.encode(space.decode(idx)) == idx


def test_lanes_are_the_decoded_states(va_penalty):
    """Column i of lanes is lane_state(decode(i), 1), and encode_array
    maps the lanes back to their indices; a Bernoulli sensor's arrival bit
    is aoli == 0."""
    markov = a.SensorSpec(a.MarkovArrival(0.6, 0.7), va_penalty, 0.3, 0.9, 2, 3)
    bern = a.SensorSpec(a.BernoulliArrival(0.4), va_penalty, 0.5, 1.0, 1, 2)
    spec = a.SystemSpec((bern, markov, bern), a.ChannelSpec(0.5, 0.8), 2)
    space = mdp.StateSpace(spec)
    lanes = space.lanes
    assert lanes is space.lanes
    for idx in range(space.n_states):
        expected = dynamics.lane_state(space.decode(idx), 1)
        for field, column, want in zip(lanes._fields, lanes, expected):
            got = column[..., idx : idx + 1]
            assert got.dtype == want.dtype and np.array_equal(got, want), (idx, field)
    np.testing.assert_array_equal(space.encode_array(lanes), np.arange(space.n_states))


def test_encode_array_raises_where_encode_does():
    """On twosensor, one lane of four at an age outside the truncation, on
    either side, makes encode_array raise naming that sensor, as encode
    raises on that state; the edges inside encode alike."""
    space = mdp.StateSpace(cli.load_config(str(TWO_SENSOR)).system)
    start = space.decode(space.reference_index())
    for i, s in enumerate(space.spec.sensors):
        outside = [(-1, 1), (s.max_aoli + 1, 1), (0, 0), (0, s.max_aori + 1)]
        inside = [(0, 1), (s.max_aoli, 1), (0, s.max_aori), (s.max_aoli, s.max_aori)]
        for (aoli, aori), refused in [(c, True) for c in outside] + [(c, False) for c in inside]:
            sensors = list(start.sensors)
            sensors[i] = dynamics.SensorState(aoli, aori)
            state = start._replace(sensors=tuple(sensors))
            lanes = dynamics.lane_state(start, 4)
            lanes.aoli[i, 2], lanes.aori[i, 2] = aoli, aori
            lanes.arrival[i, 2] = state.prev_arrival[i]
            if refused:
                with pytest.raises(ValueError, match="outside truncation"):
                    space.encode(state)
                with pytest.raises(ValueError, match=f"sensor {i} .*outside truncation"):
                    space.encode_array(lanes)
            else:
                want = [space.reference_index()] * 4
                want[2] = space.encode(state)
                assert space.encode_array(lanes).tolist() == want


def test_encode_array_raises_on_theta_where_encode_does():
    """On twosensor, one lane of four at theta -1 or 2 makes encode_array
    raise, as encode raises on that state; theta 0 and 1 encode alike."""
    space = mdp.StateSpace(cli.load_config(str(TWO_SENSOR)).system)
    start = space.decode(space.reference_index())
    for theta, refused in [(-1, True), (2, True), (0, False), (1, False)]:
        state = start._replace(theta=theta)
        lanes = dynamics.lane_state(start, 4)
        lanes.theta[2] = theta
        if refused:
            with pytest.raises(ValueError, match="theta"):
                space.encode(state)
            with pytest.raises(ValueError, match="theta"):
                space.encode_array(lanes)
        else:
            want = [space.reference_index()] * 4
            want[2] = space.encode(state)
            assert space.encode_array(lanes).tolist() == want


def test_strides_are_the_scalar_encode_steps(va_penalty):
    """On a Markov + Bernoulli space of unequal caps, raising one sensor's
    aoli (or aori) by one below its cap moves the scalar encode by exactly
    aoli_stride(i) (or aori_stride(i)), at random states."""
    markov = a.SensorSpec(a.MarkovArrival(0.6, 0.7), va_penalty, 0.3, 0.9, 3, 5)
    bern = a.SensorSpec(a.BernoulliArrival(0.4), va_penalty, 0.5, 1.0, 2, 4)
    spec = a.SystemSpec((markov, bern), a.ChannelSpec(0.5, 0.8), 1)
    space = mdp.StateSpace(spec)
    rng = np.random.default_rng(7)
    steps = 0
    for idx in rng.integers(space.n_states, size=200).tolist():
        state = space.decode(idx)
        for i, s in enumerate(spec.sensors):
            st = state.sensors[i]
            for coord, cap, stride in (
                ("aoli", s.max_aoli, space.aoli_stride(i)),
                ("aori", s.max_aori, space.aori_stride(i)),
            ):
                if getattr(st, coord) < cap:
                    sensors = list(state.sensors)
                    sensors[i] = st._replace(**{coord: getattr(st, coord) + 1})
                    raised = state._replace(sensors=tuple(sensors))
                    assert space.encode(raised) - space.encode(state) == stride, (idx, i, coord)
                    steps += 1
    assert steps > 400


def test_state_count_is_exact_beyond_int64(va_penalty):
    # three sensors at cap 1500: 2 * (1501 * 1500)^3 is about 2.3e19 > 2^63
    sensor = a.SensorSpec(a.BernoulliArrival(0.5), va_penalty, 0.4, 0.9, 1500, 1500)
    spec = a.SystemSpec((sensor,) * 3, a.ChannelSpec(0.5, 0.8), 1)
    assert mdp.StateSpace(spec).n_states == 2 * (1501 * 1500) ** 3


def test_action_set_ordering_and_size():
    actions = mdp.ActionSet(3, 2)
    assert len(actions) == 1 + 3 + 3
    assert actions.actions[0] == (0, 0, 0)
    assert all(sum(act) <= 2 for act in actions.actions)
    # popcount-major ordering: singletons before pairs
    assert actions.actions[1:4] == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert actions.index((0, 0, 0)) == 0


def test_space_keeps_its_action_set_and_factors(va_penalty):
    """A space builds its action set and factors on first use and keeps
    them: every access returns the same objects, with the bytes of a fresh
    ActionSet and a fresh build_factors."""
    markov = a.SensorSpec(a.MarkovArrival(0.6, 0.7), va_penalty, 0.3, 0.9, 2, 3)
    bern = a.SensorSpec(a.BernoulliArrival(0.4), va_penalty, 0.5, 1.0, 1, 2)
    space = mdp.StateSpace(a.SystemSpec((markov, bern), a.ChannelSpec(0.5, 0.8), 2))
    actions, factors = space.action_set, space.factors
    assert space.action_set is actions and space.factors is factors
    fresh = mdp.ActionSet(2, 2)
    assert actions.actions == fresh.actions
    for name in ("schedules", "code_index"):
        assert getattr(actions, name).tobytes() == getattr(fresh, name).tobytes()
    built = mdp.build_factors(space)
    assert built is not factors and built.n_states == factors.n_states
    arrays = [(factors.row_of, built.row_of), (factors.omega, built.omega)]
    for kept, made in zip(factors.tables, built.tables, strict=True):
        for kept_table, made_table in zip(kept, made, strict=True):
            arrays += zip(kept_table, made_table, strict=True)
    for kept, made in arrays:
        assert (kept.dtype, kept.shape, kept.tobytes()) == (made.dtype, made.shape, made.tobytes())


def test_making_a_space_builds_no_model(va_system, monkeypatch):
    """StateSpace, and the state budget check that makes one to refuse it,
    build neither the action set nor the factors; the first access to each
    builds it, once."""
    built = []
    build_factors, action_set = mdp.build_factors, mdp.ActionSet

    def counted_factors(space):
        built.append("factors")
        return build_factors(space)

    def counted_actions(n, m):
        built.append("actions")
        return action_set(n, m)

    monkeypatch.setattr(mdp, "build_factors", counted_factors)
    monkeypatch.setattr(mdp, "ActionSet", counted_actions)
    space = cli._check_state_budget(va_system, 6272)
    with pytest.raises(cli.ConfigError):
        cli._check_state_budget(va_system, 6271)
    assert built == []
    for _ in range(2):
        space.factors, space.action_set
    assert built == ["factors", "actions"]


def test_transition_distribution_reference_case(va_penalty):
    sensor = a.SensorSpec(a.BernoulliArrival(0.9), va_penalty, 0.5, 1.0, 7, 7)
    spec = a.SystemSpec((sensor,), a.ChannelSpec(0.5, 0.8), 1)
    state = dynamics.JointState((dynamics.SensorState(3, 5),), 0, (False,))
    dist = dict(mdp.transition_distribution(state, (1,), spec))
    target = dynamics.JointState((dynamics.SensorState(0, 4),), 0, (True,))
    # channel stay 0.5 x arrival 0.9 x success-in-bad 0.5
    assert dist[target] == pytest.approx(0.225, abs=1e-12)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)


def test_transition_distribution_idle_no_arrivals(va_penalty):
    sensor = a.SensorSpec(a.BernoulliArrival(0.0), va_penalty, 0.5, 1.0, 7, 7)
    spec = a.SystemSpec((sensor,), a.ChannelSpec(0.5, 0.8), 1)
    state = dynamics.JointState((dynamics.SensorState(2, 4),), 1, (False,))
    dist = mdp.transition_distribution(state, (0,), spec)
    assert len(dist) == 2  # one successor per channel branch
    for nxt, prob in dist:
        assert nxt.sensors[0] == (3, 5)
        assert prob == pytest.approx(0.8 if nxt.theta == 1 else 0.2)


def test_transition_distribution_rejects_infeasible(va_system):
    state = dynamics.initial_state(va_system)
    with pytest.raises(ValueError):
        mdp.transition_distribution(state, (1, 1), va_system)


def test_transition_truncation_merges_mass(va_penalty):
    sensor = a.SensorSpec(a.BernoulliArrival(0.4), va_penalty, 0.5, 0.9, 3, 3)
    spec = a.SystemSpec((sensor,), a.ChannelSpec(0.5, 0.8), 1)
    state = dynamics.JointState((dynamics.SensorState(3, 3),), 0, (False,))
    dist = mdp.transition_distribution(state, (0,), spec)
    # fully saturated idle step: only the arrival branch splits the state
    assert sum(p for _, p in dist) == pytest.approx(1.0, abs=1e-12)
    for nxt, _ in dist:
        assert nxt.sensors[0].aori == 3
        assert nxt.sensors[0].aoli in (0, 3)


def test_kernel_rows_sum_to_one(va_penalty):
    markov = a.SensorSpec(a.MarkovArrival(0.3, 0.8), va_penalty, 0.2, 0.7, 2, 3)
    bern = a.SensorSpec(a.BernoulliArrival(0.6), va_penalty, 0.5, 1.0, 2, 3)
    spec = a.SystemSpec((markov, bern), a.ChannelSpec(0.4, 0.7), 2)
    space = mdp.StateSpace(spec)
    for k in stacked_rows(mdp.build_kernels(space)):
        assert np.allclose(np.asarray(k.sum(axis=1)).ravel(), 1.0, atol=1e-12)


def test_markov_arrival_kernel_rows(va_penalty):
    """Scheduled transmission with arrival memory, both memory values."""
    lam_t, lam_b = 0.6, 0.7  # stay_empty, stay_active
    p0 = 0.5
    sensor = a.SensorSpec(a.MarkovArrival(lam_t, lam_b), va_penalty, p0, 1.0, 7, 7)
    spec = a.SystemSpec((sensor,), a.ChannelSpec(0.5, 0.8), 1)

    # memory bit set (arrival last slot, aoli = 0)
    rows = dict(
        (key, p)
        for key, p in mdp.sensor_delta_transitions(sensor, 0, 4, 1, 0, True)
    )
    assert rows[(0, 1, 1)] == pytest.approx(lam_b * p0)  # arrival, delivered
    assert rows[(1, 1, 0)] == pytest.approx((1 - lam_b) * p0)
    assert rows[(0, 5, 1)] == pytest.approx(lam_b * (1 - p0))
    assert rows[(1, 5, 0)] == pytest.approx((1 - lam_b) * (1 - p0))

    # memory bit clear (no arrival last slot, aoli > 0)
    rows = dict(
        (key, p)
        for key, p in mdp.sensor_delta_transitions(sensor, 2, 4, 0, 0, True)
    )
    assert rows[(3, 3, 0)] == pytest.approx(lam_t * p0)  # no arrival, delivered
    assert rows[(0, 3, 1)] == pytest.approx((1 - lam_t) * p0)
    assert rows[(3, 5, 0)] == pytest.approx(lam_t * (1 - p0))
    assert rows[(0, 5, 1)] == pytest.approx((1 - lam_t) * (1 - p0))

    # idle action, both memory values
    rows = dict(mdp.sensor_delta_transitions(sensor, 0, 4, 1, 0, False))
    assert rows == {
        (0, 5, 1): pytest.approx(lam_b),
        (1, 5, 0): pytest.approx(1 - lam_b),
    }
    rows = dict(mdp.sensor_delta_transitions(sensor, 2, 4, 0, 0, False))
    assert rows == {
        (3, 5, 0): pytest.approx(lam_t),
        (0, 5, 1): pytest.approx(1 - lam_t),
    }


# -- independent brute-force oracle for the tiny instance -------------------

TINY = dict(lam=0.7, p0=0.4, p1=0.9, k00=0.5, k11=0.8, r=0.5, cap_l=1, cap_r=2)


def tiny_states():
    return [
        (l, d, th)
        for l in range(TINY["cap_l"] + 1)
        for d in range(1, TINY["cap_r"] + 1)
        for th in (0, 1)
    ]


def tiny_successors(state, act):
    """Hand-coded case table, written independently of the package."""
    l, d, th = state
    lam = TINY["lam"]
    p = TINY["p0"] if th == 0 else TINY["p1"]
    out = {}

    def add(l2, d2, th2, prob):
        key = (min(l2, TINY["cap_l"]), min(d2, TINY["cap_r"]), th2)
        out[key] = out.get(key, 0.0) + prob

    for th2 in (0, 1):
        stay = TINY["k00"] if th == 0 else TINY["k11"]
        ch = stay if th2 == th else 1.0 - stay
        if act == 1:
            add(0, l + 1, th2, ch * lam * p)
            add(l + 1, l + 1, th2, ch * (1 - lam) * p)
            add(0, d + 1, th2, ch * lam * (1 - p))
            add(l + 1, d + 1, th2, ch * (1 - lam) * (1 - p))
        else:
            add(0, d + 1, th2, ch * lam)
            add(l + 1, d + 1, th2, ch * (1 - lam))
    return out


def tiny_brute_force_optimum():
    """Exact average cost of the best of all 2^8 deterministic policies."""
    states = tiny_states()
    index = {s: i for i, s in enumerate(states)}
    n = len(states)
    cost = np.array([np.expm1(TINY["r"] * s[1]) for s in states])
    chains = np.zeros((2, n, n))
    for s in states:
        for act in (0, 1):
            for s2, pr in tiny_successors(s, act).items():
                chains[act, index[s], index[s2]] += pr
    best = np.inf
    start = index[(0, 1, 0)]
    for bits in itertools.product((0, 1), repeat=n):
        p = np.array([chains[bits[i], i] for i in range(n)])
        # reachable set from the start state
        reach = {start}
        frontier = [start]
        while frontier:
            x = frontier.pop()
            for y in np.nonzero(p[x] > 0)[0]:
                if y not in reach:
                    reach.add(int(y))
                    frontier.append(int(y))
        sel = sorted(reach)
        q = p[np.ix_(sel, sel)]
        m = len(sel)
        lhs = q.T - np.eye(m)
        lhs[-1, :] = 1.0
        rhs = np.zeros(m)
        rhs[-1] = 1.0
        xi = np.linalg.solve(lhs, rhs)
        best = min(best, float(xi @ cost[np.array(sel)]))
    return best


def test_rvi_matches_brute_force(tiny_solved):
    expected = tiny_brute_force_optimum()
    assert tiny_solved.vt.gain == pytest.approx(expected, abs=1e-6)
    assert tiny_solved.vt.values[tiny_solved.start] == 0.0  # normalization anchor


def test_rvi_gain_invariant_under_reference_state(tiny_solved):
    b = tiny_solved
    other_ref = b.space.n_states - 1
    vt2, _ = mdp.relative_value_iteration(b.kernels, b.cost, other_ref)
    assert vt2.gain == pytest.approx(b.vt.gain, abs=1e-6)


def test_rvi_degenerate_always_fresh(va_penalty):
    sensor = a.SensorSpec(a.BernoulliArrival(1.0), va_penalty, 1.0, 1.0, 3, 3)
    spec = a.SystemSpec((sensor,), a.ChannelSpec(0.5, 0.8), 1)
    space, vt, pt = a.solve_optimal_policy(spec)
    assert vt.gain == pytest.approx(va_penalty(1), rel=1e-9)
    # transmitting is optimal at the start state
    assert space.action_set.actions[pt.action_index[space.reference_index()]] == (1,)


def test_rvi_bellman_residual(va_hetero_solved):
    b = va_hetero_solved
    theta = np.stack(
        [b.cost + rows[b.kernels.row_of] @ b.vt.values for rows in stacked_rows(b.kernels)]
    )
    residual = np.max(np.abs(theta.min(axis=0) - b.vt.gain - b.vt.values))
    assert residual <= 10 * 1e-9
    assert b.vt.gain > 0.0


def test_rvi_nonconvergence_reports(tiny_solved, monkeypatch):
    monkeypatch.setattr(mdp, "RVI_MAX_ITER", 2)
    with pytest.raises(a.ConvergenceError):
        mdp.relative_value_iteration(tiny_solved.kernels, tiny_solved.cost, tiny_solved.start)


def test_monotonicity_checker(tiny_solved):
    b = tiny_solved
    assert mdp.check_value_monotonicity(b.vt.values, b.space, 1e-8) == []
    assert mdp.check_value_monotonicity(np.zeros(b.space.n_states), b.space, 1e-8) == []
    corrupted = b.vt.values.copy()
    victim = b.space.n_states - 1  # largest ages; lower it below its neighbor
    corrupted[victim] = corrupted.min() - 10.0
    violations = mdp.check_value_monotonicity(corrupted, b.space, 1e-8)
    assert violations
    assert any(j == victim for _, j, _, _ in violations)


def test_markov_arrival_instance_end_to_end(va_penalty):
    """Small Markov-arrival system: RVI converges and values stay monotone."""
    sensors = (
        a.SensorSpec(a.MarkovArrival(0.6, 0.7), va_penalty, 0.4, 0.9, 2, 3),
        a.SensorSpec(a.BernoulliArrival(0.5), va_penalty, 0.5, 1.0, 2, 3),
    )
    spec = a.SystemSpec(sensors, a.ChannelSpec(0.5, 0.8), 1)
    space, vt, pt = a.solve_optimal_policy(spec)
    assert vt.gain > 0
    assert mdp.check_value_monotonicity(vt.values, space, 1e-8) == []
    got = table_cost(pt, space, mdp.cost_vector(space))
    assert got == pytest.approx(vt.gain, abs=1e-6)


def test_always_idle_cost_saturates(va_solved):
    b = va_solved
    idle = mdp.PolicyTable(np.zeros(b.space.n_states, dtype=int), b.space.action_set)
    cap_cost = sum(s.penalty(s.max_aori) for s in b.system.sensors)
    got = table_cost(idle, b.space, b.cost)
    assert got == pytest.approx(cap_cost, rel=1e-9)


def test_optimal_policy_average_cost_matches_gain(tiny_solved):
    b = tiny_solved
    got = table_cost(b.pt, b.space, b.cost)
    assert got == pytest.approx(b.vt.gain, abs=1e-6)


def test_optimal_gain_dominates_all_deterministic_tables(tiny_solved):
    b = tiny_solved
    rng = np.random.default_rng(0)
    for _ in range(25):
        actions = b.space.action_set
        table = mdp.PolicyTable(rng.integers(len(actions), size=b.space.n_states), actions)
        cost = table_cost(table, b.space, b.cost)
        assert b.vt.gain <= cost + 1e-6


def test_table_rows_shape(tiny_solved):
    b = tiny_solved
    blocks = list(mdp.table_rows(b.space, b.vt.values, b.pt))
    # the header line, then the rows in byte blocks of whole lines
    assert blocks[0].count(b"\r\n") == 1
    assert all(block.endswith(b"\r\n") for block in blocks)
    lines = b"".join(blocks).decode().split("\r\n")[:-1]
    header, *rows = (line.split(",") for line in lines)
    assert len(rows) == b.space.n_states
    # state_index, aoli, aori, theta, value, action_bits for one sensor
    assert header == ["state_index", "aoli_1", "aori_1", "theta", "value", "action_bits"]
    assert {len(row) for row in rows} == {6}
