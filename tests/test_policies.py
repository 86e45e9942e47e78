import textwrap
from pathlib import Path

import numpy as np
import pytest

import aoisched as a
from aoisched import cli, dynamics, mdp, policies as pol

from conftest import VA_CHANNEL, action_at, make_va_system, sensor_index, table_cost
from test_cli import write_config
from test_tables import MARKOV_YAML


def _state(sensor_states, theta=0):
    sensors = tuple(dynamics.SensorState(l, r) for l, r in sensor_states)
    return dynamics.JointState(sensors, theta, tuple(l == 0 for l, _ in sensor_states))


def test_maf_decide_examples():
    assert pol.maf_decide(_state([(0, 5), (0, 3)]), 1) == (1, 0)
    assert pol.maf_decide(_state([(0, 4), (0, 4)]), 1) == (1, 0)  # index tie-break
    assert pol.maf_decide(_state([(0, 2), (0, 5), (0, 5)]), 2) == (0, 1, 1)


def test_mef_decide_heterogeneous_penalties():
    s1 = a.SensorSpec(a.BernoulliArrival(0.5), a.ExponentialPenalty(0.5), 0.5, 1.0, 7, 7)
    s2 = a.SensorSpec(a.BernoulliArrival(0.5), a.ExponentialPenalty(1.2), 0.5, 1.0, 7, 7)
    spec = a.SystemSpec((s1, s2), VA_CHANNEL, 1)
    # f2(3) = e^3.6 - 1 > f1(6) = e^3 - 1 even though sensor 1 is older
    assert pol.mef_decide(_state([(0, 6), (0, 3)]), 1, spec) == (0, 1)


def test_mef_equals_maf_on_homogeneous_system(va_system):
    space = mdp.StateSpace(va_system)
    table = pol.policy_to_table(pol.MefPolicy(va_system), space)
    for idx in range(space.n_states):
        assert action_at(table, idx) == pol.maf_decide(space.decode(idx), 1)


def test_mef_full_budget_schedules_everyone(va_system):
    spec = a.SystemSpec(va_system.sensors, va_system.channel, 2)
    assert pol.mef_decide(_state([(0, 1), (0, 1)]), 2, spec) == (1, 1)


def test_round_robin_sequences():
    cursor = 0
    seen = []
    for _ in range(4):
        action, cursor = pol.round_robin_decide(cursor, 3, 1)
        seen.append(action)
    assert seen == [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 0)]

    action, cursor = pol.round_robin_decide(0, 3, 2)
    assert action == (1, 1, 0) and cursor == 2

    action, cursor = pol.round_robin_decide(0, 1, 1)
    assert action == (1,) and cursor == 0


def test_round_robin_visits_evenly():
    policy = pol.RoundRobinPolicy(3, 2)
    actions = mdp.ActionSet(3, 2)
    lane = dynamics.lane_state(_state([(0, 1)] * 3), 1)
    counts = np.zeros(3, dtype=int)
    for t in range(3 * 10):  # ten full cycles
        idx = policy.decide_array(actions, lane, t, None)
        counts += actions.actions[idx[0]]
    assert np.all(counts == 20)


def test_round_robin_cursor_validation():
    with pytest.raises(ValueError):
        pol.round_robin_decide(3, 3, 1)


def test_randomized_decide_feasible_and_marginals():
    rng = np.random.default_rng(99)
    p = (0.6, 0.3)
    counts = np.zeros(2)
    n = 100_000
    for u in rng.random((n, 4)):
        action = pol.randomized_decide(p, 1, u)
        assert sum(action) <= 1
        counts += action
    # thinned marginals: P(i) = p_i (1 - p_j) + p_i p_j / 2, that is 0.51 and
    # 0.21; 0.01 is over 6 standard errors of either frequency at n = 1e5
    expected = np.array([0.6 * 0.7 + 0.09, 0.3 * 0.4 + 0.09])
    assert np.all(np.abs(counts / n - expected) < 0.01)


def test_randomized_decide_never_thins_within_budget():
    rng = np.random.default_rng(7)
    p = (0.5, 0.5)
    counts = np.zeros(2)
    n = 200_000
    for u in rng.random((n, 4)):
        action = pol.randomized_decide(p, 2, u)
        counts += action
    assert np.all(np.abs(counts / n - 0.5) < 0.01)


def test_randomized_action_weights_match_sampler():
    p = (0.6, 0.3)
    actions = mdp.ActionSet(2, 1)
    weights = pol.randomized_action_weights(p, 1, actions)
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)
    # (1,1) fires with probability .18 and splits evenly
    assert weights[actions.index((1, 0))] == pytest.approx(0.6 * 0.7 + 0.09)
    assert weights[actions.index((0, 1))] == pytest.approx(0.3 * 0.4 + 0.09)
    assert weights[actions.index((0, 0))] == pytest.approx(0.4 * 0.7)

    rng = np.random.default_rng(3)
    counts = {act: 0 for act in actions.actions}
    n = 200_000
    for u in rng.random((n, 4)):
        counts[pol.randomized_decide(p, 1, u)] += 1
    for k, act in enumerate(actions.actions):
        assert counts[act] / n == pytest.approx(weights[k], abs=0.01)


def test_randomized_lanes_follow_the_exact_weights():
    """One 200,000-lane decision with N = 3 and M = 2: every fired set of
    three is thinned, and each action's frequency is within 0.01 of
    randomized_action_weights (over 9 standard errors)."""
    p, m, lanes = (0.9, 0.6, 0.5), 2, 200_000
    actions = mdp.ActionSet(3, m)
    policy = pol.RandomizedSchedule(p, m)
    state = dynamics.lane_state(_state([(1, 1)] * 3), lanes)
    u = np.random.default_rng(11).random((policy.uniforms, lanes))
    idx = policy.decide_array(actions, state, 0, u)
    freq = np.bincount(idx, minlength=len(actions)) / lanes
    weights = pol.randomized_action_weights(p, m, actions)
    np.testing.assert_allclose(freq, weights, rtol=0, atol=0.01)


def test_myopic_reduced_space_size(va_system):
    model = pol.build_myopic_policy(va_system)
    assert model.space.n_states == 2 * 7 * 7


def test_myopic_optimal_when_arrivals_certain(va_penalty):
    # with certain arrivals the buffer is always fresh, so the single-age
    # model is exact and its policy matches the optimal average cost
    spec = make_va_system(va_penalty, 1.0, 1.0, cap=4)
    bundle_space, vt, pt = a.solve_optimal_policy(spec)
    cost = mdp.cost_vector(bundle_space)
    myopic = pol.build_myopic_policy(spec)
    table = pol.policy_to_table(myopic, bundle_space)
    myopic_cost = table_cost(table, bundle_space, cost)
    assert myopic_cost == pytest.approx(vt.gain, abs=1e-7)


def test_every_policy_returns_feasible_actions(va_hetero, va_hetero_sisp):
    space = mdp.StateSpace(va_hetero)
    actions = mdp.ActionSet(2, 1)
    rng = np.random.default_rng(0)
    candidates = [
        pol.TablePolicy("sisp", space, va_hetero_sisp.pruned_table),
        pol.MafPolicy(1),
        pol.MefPolicy(va_hetero),
        pol.build_myopic_policy(va_hetero),
        pol.IdlePolicy(2),
        pol.RandomizedSchedule((0.6, 0.3), 1),
        pol.RoundRobinPolicy(2, 1),
    ]
    for policy in candidates:
        for t in range(3):
            u = rng.random((policy.uniforms, space.n_states))
            idx = policy.decide_array(actions, space.lanes, t, u)
            assert len(idx) == space.n_states
            assert all(sum(actions.actions[k]) <= actions.m for k in idx)


def test_round_robin_chain_symmetric_marginals(va_solved):
    """Symmetric two-sensor instance: round robin splits cost equally."""
    b = va_solved
    chain = pol.round_robin_chain(b.space)
    cost_aug = np.tile(b.cost, 2)
    n = b.space.n_states
    # the chain is lumped on its keys: each augmented state's mass is the
    # mass of the keys that step to it
    xi_aug = mdp.stationary_distribution(chain.p) @ chain.rep
    xi = xi_aug[:n] + xi_aug[n:]
    per_sensor = mdp.average_cost_by_sensor(xi, b.space)
    assert per_sensor[0] == pytest.approx(per_sensor[1], abs=1e-9)
    assert per_sensor.sum() == pytest.approx(float(xi_aug @ cost_aug), abs=1e-9)


def test_table_policy_round_trip(tiny_solved):
    b = tiny_solved
    policy = pol.TablePolicy("optimal", b.space, b.pt)
    table = pol.policy_to_table(policy, b.space)
    assert np.array_equal(table.action_index, b.pt.action_index)


# One Markov sensor with sticky arrivals and M = 1. Its transmit gain
# eq[x, 1] - eq[x, 0] is the same for both arrival-memory bits up to
# rounding, but at its zero-gain ties the bit's own eq entries break the tie:
# SISP decides 12 of the 324 states differently if every bit reads 1.
MEMORY_YAML = textwrap.dedent(
    """
    channel: {kappa00: 0.5, kappa11: 0.8}
    budget: 1
    truncation: {max_aori: 3, max_aoli: 2}
    sensors:
      - arrival: {kind: markov, stay_empty: 0.8, stay_active: 0.95}
        penalty: {kind: exponential, r: 0.6}
        p0: 0.3
        p1: 0.9
      - arrival: {kind: bernoulli, rate: 0.4}
        penalty: {kind: exponential, r: 0.4}
        p0: 0.4
        p1: 0.9
    output: {dir: OUTDIR}
    """
)


def _config(case, tmp_path):
    if case == "twosensor":
        path = Path(__file__).resolve().parents[1] / "configs" / "twosensor.yaml"
    else:
        path, _ = write_config(tmp_path, MEMORY_YAML if case == "memory" else MARKOV_YAML)
    return cli.load_config(str(path))


def _reference_rule(name, policy, spec):
    """The decision of `policy` at one JointState, from the module-level
    rules and the tables themselves."""
    m = spec.m_budget
    if name == "optimal":
        return lambda state: action_at(policy.table, policy.space.encode(state))
    if name == "sisp":
        actions = mdp.ActionSet(spec.n_sensors, m)

        def score(state, action):
            # each sensor's eq entry at its own index, summed in sensor order
            per_sensor = zip(policy.values, state.sensors, state.prev_arrival, action)
            return sum(
                pv.eq[sensor_index(pv, st, state.theta, arrived), a_i]
                for pv, st, arrived, a_i in per_sensor
            )

        # min keeps the first of equal scores: the lowest action index
        return lambda state: min(actions.actions, key=lambda action: score(state, action))
    if name == "myopic":
        def myopic(state):
            reduced = dynamics.JointState(
                tuple(dynamics.SensorState(0, st.aori) for st in state.sensors),
                state.theta,
                (True,) * spec.n_sensors,
            )
            return action_at(policy.table, policy.space.encode(reduced))

        return myopic
    if name == "maf":
        return lambda state: pol.maf_decide(state, m)
    if name == "mef":
        return lambda state: pol.mef_decide(state, m, spec)
    return lambda state: (0,) * spec.n_sensors  # idle


@pytest.mark.parametrize("case", ["twosensor", "markov", "memory"])
def test_policy_to_table_matches_decide(case, tmp_path):
    """decide_array, through policy_to_table, against the reference rule
    at every state."""
    cfg = _config(case, tmp_path)
    cache = {}
    space = cli._joint_mdp(cfg, cache)
    actions = space.action_set
    states = [space.decode(i) for i in range(space.n_states)]
    for name in ("optimal", "sisp", "maf", "mef", "myopic", "idle"):
        policy = cli._build_policy(name, cfg, cache)
        rule = _reference_rule(name, policy, cfg.system)
        expected = [actions.index(rule(state)) for state in states]
        table = pol.policy_to_table(policy, space)
        assert table.action_set is actions
        np.testing.assert_array_equal(table.action_index, expected, err_msg=name)


@pytest.mark.parametrize("case", ["twosensor", "markov"])
def test_time_and_stream_rules_match_references(case, tmp_path):
    """Round robin against round_robin_decide over t, and the randomized
    policy against randomized_decide on the same uniforms, with every state
    a lane."""
    cfg = _config(case, tmp_path)
    spec = cfg.system
    n, m = spec.n_sensors, spec.m_budget
    space = mdp.StateSpace(spec)
    actions = mdp.ActionSet(n, m)
    lanes = space.lanes
    rr = cli._build_policy("rr", cfg, {})
    cursor = 0
    for t in range(2 * n + 1):
        action, cursor = pol.round_robin_decide(cursor, n, m)
        idx = rr.decide_array(actions, lanes, t, None)
        assert np.all(idx == actions.index(action)), t

    # the second policy fires every sensor often, so thinning decides too
    rng = np.random.default_rng(5)
    for rand in (cli._build_policy("rand", cfg, {}), pol.RandomizedSchedule((0.9,) * n, m)):
        assert rand.uniforms == 2 * n
        for t in range(3):
            u = rng.random((rand.uniforms, space.n_states))
            idx = rand.decide_array(actions, lanes, t, u)
            expected = [actions.index(pol.randomized_decide(rand.p, m, col)) for col in u.T]
            np.testing.assert_array_equal(idx, expected, err_msg=f"{rand.p} at t={t}")
