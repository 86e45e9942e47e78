from pathlib import Path

import numpy as np
import pytest

import aoisched as a
from aoisched import cli, dynamics, mdp, policies as pol

from conftest import VA_CHANNEL, make_va_system
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
    mef = pol.MefPolicy(va_system)
    for idx in range(space.n_states):
        state = space.decode(idx)
        assert mef.decide(state) == pol.maf_decide(state, 1)


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
    policy.reset()
    counts = np.zeros(3, dtype=int)
    for _ in range(3 * 10):  # ten full cycles
        counts += policy.decide(_state([(0, 1)] * 3))
    assert np.all(counts == 20)


def test_round_robin_cursor_validation():
    with pytest.raises(ValueError):
        pol.round_robin_decide(3, 3, 1)


def test_randomized_decide_feasible_and_marginals():
    rng = np.random.default_rng(99)
    p = (0.6, 0.3)
    counts = np.zeros(2)
    n = 1_000_000
    for _ in range(n):
        action = pol.randomized_decide(p, 1, rng)
        assert sum(action) <= 1
        counts += action
    # thinned marginals: P(i) = p_i (1 - p_j) + p_i p_j / 2
    expected = np.array([0.6 * 0.7 + 0.09, 0.3 * 0.4 + 0.09])
    assert np.all(np.abs(counts / n - expected) < 0.01)


def test_randomized_decide_never_thins_within_budget():
    rng = np.random.default_rng(7)
    p = (0.5, 0.5)
    counts = np.zeros(2)
    n = 200_000
    for _ in range(n):
        action = pol.randomized_decide(p, 2, rng)
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
    for _ in range(n):
        counts[pol.randomized_decide(p, 1, rng)] += 1
    for k, act in enumerate(actions.actions):
        assert counts[act] / n == pytest.approx(weights[k], abs=0.01)


def test_myopic_reduced_space_size(va_system):
    model = pol.build_myopic_policy(va_system)
    assert model.space.n_states == 2 * 7 * 7


def test_myopic_optimal_when_arrivals_certain(va_penalty):
    # with certain arrivals the buffer is always fresh, so the single-age
    # model is exact and its policy matches the optimal average cost
    spec = make_va_system(va_penalty, 1.0, 1.0, cap=4)
    bundle_space, actions, vt, pt = a.solve_optimal_policy(spec)
    kernels = mdp.build_kernels(spec, bundle_space, actions)
    cost = mdp.cost_vector(bundle_space, spec)
    start = bundle_space.reference_index()
    myopic = pol.MyopicPolicy(pol.build_myopic_policy(spec))
    table = pol.policy_to_table(myopic, bundle_space, actions)
    myopic_cost = mdp.policy_average_cost(table, kernels, cost, start)
    assert myopic_cost == pytest.approx(vt.gain, abs=1e-7)


def test_every_policy_returns_feasible_actions(va_hetero, va_hetero_sisp):
    space = mdp.StateSpace(va_hetero)
    actions = mdp.ActionSet(2, 1)
    rng = np.random.default_rng(1)
    sisp = pol.TablePolicy("sisp", space, va_hetero_sisp.pruned_table)
    myopic = pol.MyopicPolicy(pol.build_myopic_policy(va_hetero))
    rand = pol.RandomizedSchedule((0.6, 0.3), 1)
    rand.reset(rng)
    rr = pol.RoundRobinPolicy(2, 1)
    rr.reset()
    candidates = [
        sisp,
        pol.MafPolicy(1),
        pol.MefPolicy(va_hetero),
        myopic,
        pol.IdlePolicy(2),
        rand,
        rr,
    ]
    for idx in range(space.n_states):
        state = space.decode(idx)
        for policy in candidates:
            assert actions.is_feasible(policy.decide(state))


def test_round_robin_chain_symmetric_marginals(va_solved):
    """Symmetric two-sensor instance: round robin splits cost equally."""
    b = va_solved
    p_aug, cost_aug, start = pol.round_robin_chain(
        b.space, b.kernels, b.cost, 2, 1
    )
    xi_aug = mdp.stationary_distribution(p_aug, start)
    n = b.space.n_states
    xi = xi_aug[:n] + xi_aug[n:]
    per_sensor = mdp.average_cost_by_sensor(xi, b.space, b.system)
    assert per_sensor[0] == pytest.approx(per_sensor[1], abs=1e-9)
    assert per_sensor.sum() == pytest.approx(float(xi_aug @ cost_aug), abs=1e-9)


def test_table_policy_round_trip(tiny_solved):
    b = tiny_solved
    policy = pol.TablePolicy("optimal", b.space, b.pt)
    for idx in range(b.space.n_states):
        assert policy.decide(b.space.decode(idx)) == b.pt.action_of(idx)


@pytest.mark.parametrize("case", ["twosensor", "markov"])
def test_policy_to_table_matches_decide(case, tmp_path):
    if case == "twosensor":
        path = Path(__file__).resolve().parents[1] / "configs" / "twosensor.yaml"
    else:
        path, _ = write_config(tmp_path, MARKOV_YAML)
    cfg = cli.load_config(str(path))
    cache = {}
    space, actions, _, _ = cli._joint_mdp(cfg, cache)
    for name in ("optimal", "sisp", "maf", "mef", "myopic", "idle"):
        policy = cli._build_policy(name, cfg, cache)
        expected = [actions.index(policy.decide(space.decode(i))) for i in range(space.n_states)]
        table = pol.policy_to_table(policy, space, actions)
        assert table.action_set is actions
        np.testing.assert_array_equal(table.action_index, expected, err_msg=name)
