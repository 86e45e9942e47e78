import numpy as np
import pytest

from aoisched import decomposed, mdp, policies as pol, sim

from conftest import make_va_system


class _ListSink:
    """Trajectory rows written as text, read back as 8 ints and the penalty."""

    def __init__(self):
        self.rows = []

    def write(self, text):
        for line in text.splitlines():
            *ints, penalty = line.split(",")
            self.rows.append([*map(int, ints), float(penalty)])


def test_monte_carlo_is_deterministic(va_system, va_sisp):
    space = mdp.StateSpace(va_system)
    def plan():
        return sim.ExperimentPlan(
            va_system,
            [pol.TablePolicy("sisp", space, va_sisp.pruned_table), pol.MafPolicy(1)],
            horizon=300,
            replications=10,
            base_seed=7,
            warmup=0,
        )

    r1, r2 = sim.monte_carlo(plan()), sim.monte_carlo(plan())
    for s1, s2 in zip(r1, r2):
        assert s1.mean == s2.mean
        assert np.array_equal(s1.rep_means, s2.rep_means)


def test_common_random_numbers_across_policies(va_system):
    """Channel and arrival columns coincide across policies per replication."""
    def trace(policy):
        sink = _ListSink()
        sim.run_episode(va_system, policy, 200, seed=5, sink=sink)
        # columns: t, theta, sensor, aoli, aori, scheduled, arrived, delivered, penalty
        return [(r[0], r[1], r[2], r[6]) for r in sink.rows]

    idle_view = trace(pol.IdlePolicy(2))
    maf_view = trace(pol.MafPolicy(1))
    assert idle_view == maf_view


def test_episode_average_approaches_gain(tiny_solved):
    b = tiny_solved
    policy = pol.TablePolicy("optimal", b.space, b.pt)
    reps = 30
    # replication r replays run_episode(seed=100 + r) bit for bit
    plan = sim.ExperimentPlan(b.system, [policy], 20_000, reps, base_seed=100, warmup=500)
    means = sim.monte_carlo(plan)[0].rep_means
    se = means.std(ddof=1) / np.sqrt(reps)
    assert abs(means.mean() - b.vt.gain) <= 3 * se


def test_idle_cost_saturates(va_penalty):
    spec = make_va_system(va_penalty, 0.0, 0.0, cap=5)
    avg_cost = sim.run_episode(spec, pol.IdlePolicy(2), 3000, seed=1, warmup=1000)
    cap_cost = sum(s.penalty(5) for s in spec.sensors)
    assert avg_cost == pytest.approx(cap_cost, rel=1e-9)


def test_trajectory_rows_and_delivery_reset(va_system, va_sisp):
    space = mdp.StateSpace(va_system)
    policy = pol.TablePolicy("sisp", space, va_sisp.pruned_table)
    sink = _ListSink()
    sim.run_episode(va_system, policy, 400, seed=9, sink=sink)
    assert len(sink.rows) == 400 * 2
    prev_aoli = {1: 0, 2: 0}
    deliveries = 0
    for t, theta, sensor, aoli, aori, scheduled, arrived, delivered, penalty in sink.rows:
        assert theta in (0, 1)
        assert penalty == pytest.approx(va_system.sensors[sensor - 1].penalty(aori))
        if delivered:
            deliveries += 1
            assert scheduled == 1
            # monitor age resets to the delivered packet's age plus one
            assert aori == min(prev_aoli[sensor] + 1, 7)
        prev_aoli[sensor] = aoli
    assert deliveries > 50


def test_plan_validation(va_system):
    with pytest.raises(ValueError):
        sim.ExperimentPlan(va_system, [pol.IdlePolicy(2)], 100, 10, 0, warmup=100)
    with pytest.raises(ValueError):
        sim.ExperimentPlan(va_system, [pol.IdlePolicy(2)], 100, 0, 0, 0)


def test_with_caps_rebuilds_sensors(va_system):
    capped = sim.with_caps(va_system, 10)
    assert all(s.max_aori == 10 and s.max_aoli == 10 for s in capped.sensors)
    assert capped.channel == va_system.channel


def test_divergence_probe_single_cap(va_system):
    p_r = decomposed.default_randomized_probs(va_system)
    out = sim.divergence_probe(va_system, [7], 300, 11, 5, 0, p_r)
    assert len(out) == 1
    # the entry of cap 7, the system's own caps, is a plain SISP run there
    sisp = decomposed.SispPolicy(decomposed.solve_sisp_values(va_system, p_r))
    alone = sim.monte_carlo(sim.ExperimentPlan(va_system, [sisp], 300, 5, 11, 0))
    assert out[0].rep_means.tobytes() == alone[0].rep_means.tobytes()
    assert out[0].mean > 0


def test_mc_mean_matches_exact_cost(va_solved, va_sisp):
    """Long simulated episodes agree with the stationary-distribution value."""
    b = va_solved
    exact = mdp.policy_average_cost(va_sisp.pruned_table, b.factors, b.cost, b.start)
    policy = pol.TablePolicy("sisp", b.space, va_sisp.pruned_table)
    plan = sim.ExperimentPlan(
        b.system, [policy], horizon=10_000, replications=30, base_seed=21, warmup=500
    )
    st = sim.monte_carlo(plan)[0]
    assert abs(st.mean - exact) <= 3 * st.ci95
