"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. Heavier solved artifacts
are shared through session fixtures; runtime-capped criteria time their own
work.
"""

import math
import time

import numpy as np
import pytest

import aoisched as a
from aoisched import decomposed, dynamics, mdp, policies as pol, sim, stability

from conftest import (
    VA_A,
    VA_C,
    VA_CHANNEL,
    VA_R_MEAS,
    VA_SIGMA_W,
    make_va_sensor,
    make_va_system,
    region_contains,
    sisp_bundle,
    solve_bundle,
    table_cost,
    tiny_system,
)
from test_mdp import tiny_brute_force_optimum

PBAR_REFERENCE = np.array([[0.9038, -0.5175], [-0.5175, 0.7464]])


def _report(num, text):
    print(f"\n[acceptance] criterion {num}: PASS - {text}")


@pytest.fixture(scope="module")
def va_half_solved(va_penalty):
    return solve_bundle(make_va_system(va_penalty, 0.5, 0.5))


@pytest.fixture(scope="module")
def va_half_sisp(va_half_solved):
    return sisp_bundle(va_half_solved)


def test_criterion_01_riccati_reproduction():
    t0 = time.perf_counter()
    pbar = a.solve_steady_state_covariance(VA_A, VA_C, VA_SIGMA_W, VA_R_MEAS)
    elapsed = time.perf_counter() - t0
    err = np.max(np.abs(pbar - PBAR_REFERENCE))
    assert err < 1e-3
    assert elapsed < 1.0
    _report(1, f"steady-state covariance within {err:.2e} of reference, {elapsed:.3f}s")


def test_criterion_02_rvi_vs_brute_force():
    t0 = time.perf_counter()
    vt, _ = a.solve_optimal_policy(a.StateSpace(tiny_system()))
    brute = tiny_brute_force_optimum()
    elapsed = time.perf_counter() - t0
    assert vt.gain == pytest.approx(brute, abs=1e-6)
    assert elapsed < 1.0
    _report(
        2,
        f"RVI gain {vt.gain:.9f} vs brute force {brute:.9f} "
        f"(|diff| {abs(vt.gain - brute):.2e}), {elapsed:.3f}s",
    )


def test_criterion_03_value_monotonicity(va_penalty):
    t0 = time.perf_counter()
    bundle = solve_bundle(make_va_system(va_penalty, 0.9, 0.9))
    violations = mdp.check_value_monotonicity(bundle.vt.values, bundle.space, 10 * 1e-9)
    elapsed = time.perf_counter() - t0
    assert bundle.space.n_states == 6272
    assert violations == []
    assert elapsed < 60.0
    _report(3, f"0 monotonicity violations across 6272 states, {elapsed:.2f}s")


def _scheduling_upward_closed(table, space, actions):
    """Exhaustive check over every fixed context (all other coordinates)."""
    violations = 0
    act_matrix = np.array(actions.actions)
    scheduled = act_matrix[table.action_index]  # (n_states, N)
    for i in range(space.n_sensors):
        mask = space.lanes.aori[i] < space.r_sizes[i]
        src = np.nonzero(mask)[0]
        dst = src + space.aori_stride(i)
        violations += int(np.sum(scheduled[src, i] & ~scheduled[dst, i].astype(bool)))
    return violations


def test_criterion_04_threshold_structure(va_solved, va_sisp, va_hetero_solved, va_hetero_sisp):
    for bundle, sb in ((va_solved, va_sisp), (va_hetero_solved, va_hetero_sisp)):
        assert _scheduling_upward_closed(sb.table, bundle.space, bundle.space.action_set) == 0
        assert np.array_equal(sb.table.action_index, sb.pruned_table.action_index)
        assert sb.violations.size == 0
        assert sb.copied > 0
    _report(
        4,
        "scheduling sets upward-closed in monitor age for every context; "
        f"pruned == unpruned, pruning fired on {va_sisp.copied} and "
        f"{va_hetero_sisp.copied} of 6272 states",
    )


def test_criterion_05_decomposition_dominance(va_solved, va_sisp):
    b = va_solved
    sisp_cost = table_cost(va_sisp.pruned_table, b.space, b.cost)
    p_r = [pv.p_r for pv in va_sisp.values]
    chain = decomposed.randomized_chain_matrix(b.space, p_r)
    rand_cost = mdp.chain_average_cost(chain, b.cost)
    phi_sum = sum(pv.gain for pv in va_sisp.values)
    assert sisp_cost <= rand_cost + 1e-9
    assert phi_sum == pytest.approx(rand_cost, abs=1e-6)
    _report(
        5,
        f"SISP {sisp_cost:.6f} <= randomized {rand_cost:.6f}; "
        f"sum of per-sensor gains off by {abs(phi_sum - rand_cost):.2e}",
    )


def _exact_costs(bundle, sisp_table, p_r):
    b = bundle
    out = {"optimal": table_cost(b.pt, b.space, b.cost)}
    out["sisp"] = table_cost(sisp_table, b.space, b.cost)
    for name, policy in (
        ("maf", pol.MafPolicy(b.system.m_budget)),
        ("mef", pol.MefPolicy(b.system)),
    ):
        table = pol.policy_to_table(policy, b.space)
        out[name] = table_cost(table, b.space, b.cost)
    chain = pol.round_robin_chain(b.space)
    out["rr"] = mdp.chain_average_cost(chain, b.cost)
    actions = b.space.action_set
    weights = pol.randomized_action_weights(p_r, b.system.m_budget, actions)
    chain = mdp.mixture_chain_matrix([(weights, 0)], b.space, actions)
    out["rand"] = mdp.chain_average_cost(chain, b.cost)
    return out


def test_criterion_06_near_optimality(va_solved, va_sisp, va_half_solved, va_half_sisp):
    t0 = time.perf_counter()
    sisp_exact, sisp_mc = {}, {}
    for label, bundle, sb in (
        ("lambda=0.9", va_solved, va_sisp),
        ("lambda=0.5", va_half_solved, va_half_sisp),
    ):
        p_r = tuple(pv.p_r for pv in sb.values)
        exact = _exact_costs(bundle, sb.pruned_table, p_r)
        rel_gap = exact["sisp"] / bundle.vt.gain - 1.0
        assert exact["sisp"] <= bundle.vt.gain * 1.05, label
        assert exact["optimal"] <= exact["sisp"] + 1e-9, label
        for name in ("maf", "mef", "rr", "rand"):
            assert exact["sisp"] <= exact[name] + 1e-9, (label, name)

        # Monte Carlo confirmation with non-overlapping intervals
        space = bundle.space
        sisp_policy = pol.TablePolicy("sisp", space, sb.pruned_table)
        rand_policy = pol.RandomizedSchedule(p_r, bundle.system.m_budget)
        plan = sim.ExperimentPlan(
            bundle.system, [sisp_policy, rand_policy], 1000, 500, base_seed=2024, warmup=0
        )
        s, r = sim.monte_carlo(plan)
        assert s.mean + s.ci95 < r.mean - r.ci95, label
        sisp_exact[label], sisp_mc[label] = exact["sisp"], s.mean
        print(
            f"  {label}: optimal {exact['optimal']:.4f} <= sisp {exact['sisp']:.4f} "
            f"(gap {rel_gap:.2%}) <= maf {exact['maf']:.4f}, mef {exact['mef']:.4f}, "
            f"rr {exact['rr']:.4f}, rand {exact['rand']:.4f}; "
            f"MC sisp {s.mean:.4f}+-{s.ci95:.4f} vs rand {r.mean:.4f}+-{r.ci95:.4f}"
        )
    # faster arrivals never cost more under SISP (common seeds in the MC run)
    assert sisp_exact["lambda=0.9"] <= sisp_exact["lambda=0.5"]
    assert sisp_mc["lambda=0.9"] <= sisp_mc["lambda=0.5"]
    _report(6, f"near-optimality and ordering hold, {time.perf_counter() - t0:.1f}s")


def test_criterion_07_dual_vs_myopic(va_penalty, va_hetero, va_hetero_sisp):
    t0 = time.perf_counter()

    def simulate(system, sb):
        space = mdp.StateSpace(system)
        sisp_policy = pol.TablePolicy("sisp", space, sb.pruned_table)
        myopic_policy = pol.build_myopic_policy(system)
        plan = sim.ExperimentPlan(
            system, [sisp_policy, myopic_policy], 1000, 500, base_seed=77, warmup=0
        )
        return sim.monte_carlo(plan)

    s, m = simulate(va_hetero, va_hetero_sisp)
    assert m.mean >= s.mean
    assert m.mean - s.mean > m.ci95 + s.ci95

    certain = make_va_system(va_penalty, 1.0, 1.0)
    certain_bundle_space = mdp.StateSpace(certain)
    values = decomposed.solve_sisp_values(certain, decomposed.default_randomized_probs(certain))
    table = decomposed.build_policy_table(values, certain_bundle_space)

    class _SB:
        pruned_table = table

    s1, m1 = simulate(certain, _SB)
    assert abs(m1.mean - s1.mean) <= m1.ci95 + s1.ci95
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(
        7,
        f"myopic {m.mean:.4f} > sisp {s.mean:.4f} beyond CI at (0.9, 0.5); "
        f"gap {abs(m1.mean - s1.mean):.4f} within CI at certain arrivals, {elapsed:.1f}s",
    )


def test_criterion_08_stability_criterion(va_penalty):
    sensor = make_va_sensor(va_penalty, 0.9)
    report = stability.stability_check(VA_CHANNEL, sensor, 0)
    # independent oracle: eigenvalues of the 2x2 from numpy
    m = VA_CHANNEL.omega() * np.array([1 - 0.9 * 0.5, 1 - 0.9 * 1.0])[np.newaxis, :]
    oracle = max(abs(np.linalg.eigvals(m)))
    assert report.rho == pytest.approx(0.3, abs=1e-4)
    assert report.rho == pytest.approx(oracle, abs=1e-12)
    assert report.bound == pytest.approx(1.0 / 1.21, rel=1e-12)
    assert report.satisfied

    case1 = a.ChannelSpec(0.4, 0.7)
    bound_trace = 1.0 / 1.21
    times = []

    t0 = time.perf_counter()
    high = stability.feasible_region(case1, 0.9, bound_trace, 101)
    times.append(time.perf_counter() - t0)
    low = stability.feasible_region(case1, 0.5, bound_trace, 101)
    assert region_contains(high, low) and high.feasible.sum() > low.feasible.sum()

    sticky = stability.feasible_region(a.ChannelSpec(0.9, 0.9), 0.9, bound_trace, 101)
    fast = stability.feasible_region(a.ChannelSpec(0.2, 0.2), 0.9, bound_trace, 101)
    assert region_contains(fast, sticky) and fast.feasible.sum() > sticky.feasible.sum()

    expo = stability.feasible_region(case1, 0.9, math.exp(-0.5), 101)
    trace = stability.feasible_region(case1, 0.9, bound_trace, 101)
    assert region_contains(trace, expo) and trace.feasible.sum() > expo.feasible.sum()
    assert max(times) < 10.0
    _report(
        8,
        f"rho {report.rho:.4f} vs bound {report.bound:.4f}; region shrinks with "
        "lower arrival rate and stronger memory; exponential region inside trace region",
    )


def test_criterion_09_divergence_probe(va_penalty, va_system):
    t0 = time.perf_counter()
    caps = [7, 10, 14]

    unstable_sensor = a.SensorSpec(a.BernoulliArrival(0.05), va_penalty, 0.1, 0.2, 7, 7)
    sticky = a.ChannelSpec(0.9, 0.9)
    unstable = a.SystemSpec((unstable_sensor,), sticky, 1)
    assert not stability.stability_check(sticky, unstable_sensor, 0).satisfied
    p_r = decomposed.default_randomized_probs(unstable)
    diverging = sim.divergence_probe(unstable, caps, 1000, 5, 100, 0, p_r)
    for lo, hi in zip(diverging, diverging[1:]):
        assert hi.mean - lo.mean > hi.ci95 + lo.ci95

    assert all(r.satisfied for r in stability.system_stability(va_system))
    p_r = decomposed.default_randomized_probs(va_system)
    stable = sim.divergence_probe(va_system, caps, 1000, 5, 100, 0, p_r)
    assert abs(stable[-1].mean - stable[0].mean) <= stable[-1].ci95 + stable[0].ci95
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    growing = ", ".join(f"{cap}:{r.mean:.1f}" for cap, r in zip(caps, diverging))
    flat = ", ".join(f"{cap}:{r.mean:.2f}" for cap, r in zip(caps, stable))
    _report(
        9,
        "cost grows with the cap beyond CI at the infeasible point "
        f"({growing}) and plateaus at the feasible one ({flat}), "
        f"{elapsed:.1f}s",
    )


def _lane_counts(spec, space, state, action, samples, rng):
    """Successor counts of `samples` slots from one (state, action) pair.

    Each sample is one lane of dynamics.step_lanes. Without predrawn
    deliveries a slot consumes 1 + N + |a| uniforms (channel, arrivals, then
    the scheduled sensors' deliveries), so one block of that many columns
    replays the stream of a scalar step_system(..., predraw_delivery=False)
    loop sample for sample.
    """
    n = spec.n_sensors
    block = rng.random((samples, 1 + n + sum(action)))
    u = np.ones((1 + 2 * n, samples))  # unscheduled sensors draw no delivery
    u[: 1 + n] = block[:, : 1 + n].T
    u[[1 + n + i for i in range(n) if action[i]]] = block[:, 1 + n :].T
    scheduled = np.repeat(np.array(action, dtype=bool)[:, None], samples, axis=1)
    lanes = dynamics.lane_state(state, samples)
    nxt, _, _ = dynamics.step_lanes(lanes, scheduled, u, dynamics.lane_tables(spec))
    keys = space.encode_array(nxt)
    return dict(zip(*(a.tolist() for a in np.unique(keys, return_counts=True))))


def _empirical_agreement(spec, n_pairs, samples, rng):
    space = mdp.StateSpace(spec)
    actions = mdp.ActionSet(spec.n_sensors, spec.m_budget)
    checked = 0
    for _ in range(n_pairs):
        state = space.decode(int(rng.integers(space.n_states)))
        action = actions.actions[int(rng.integers(len(actions)))]
        expected = {
            space.encode(nxt): p
            for nxt, p in mdp.transition_distribution(state, action, spec)
        }
        counts = _lane_counts(spec, space, state, action, samples, rng)
        assert set(counts) <= set(expected), "sample outside kernel support"
        for key, q in expected.items():
            got = counts.get(key, 0)
            sigma = math.sqrt(samples * q * (1.0 - q))
            assert abs(got - samples * q) <= 3.0 * sigma + 1e-9, (
                state,
                action,
                key,
                got,
                samples * q,
            )
            checked += 1
    return checked


def _markov_spec(va_penalty):
    markov_sensors = (
        a.SensorSpec(a.MarkovArrival(0.6, 0.7), va_penalty, 0.5, 1.0, 3, 4),
        a.SensorSpec(a.MarkovArrival(0.3, 0.8), va_penalty, 0.4, 0.9, 3, 4),
    )
    return a.SystemSpec(markov_sensors, VA_CHANNEL, 1)


def test_criterion_10_kernel_simulator_agreement(va_penalty, va_hetero):
    rng = np.random.default_rng(424242)
    bins_b = _empirical_agreement(va_hetero, 20, 100_000, rng)

    markov_spec = _markov_spec(va_penalty)
    bins_m = _empirical_agreement(markov_spec, 20, 100_000, rng)
    _report(
        10,
        f"empirical frequencies inside 3-sigma for {bins_b} Bernoulli and "
        f"{bins_m} Markov successor bins (20 state-action pairs each, 1e5 samples)",
    )


def test_criterion_10_lane_counts_equal_scalar_loop(va_penalty, va_hetero):
    """The batched sampler of criterion 10 reproduces the scalar loop's counts."""
    for spec, state_index, action in ((va_hetero, 1234, (1, 0)), (_markov_spec(va_penalty), 201, (0, 1))):
        space = mdp.StateSpace(spec)
        state = space.decode(state_index)
        rng = np.random.default_rng(state_index)
        scalar = {}
        for _ in range(20_000):
            nxt, _ = dynamics.step_system(state, action, spec, rng, predraw_delivery=False)
            key = space.encode(nxt)
            scalar[key] = scalar.get(key, 0) + 1
        lanes = _lane_counts(spec, space, state, action, 20_000, np.random.default_rng(state_index))
        assert lanes == scalar
        assert len(scalar) > 2
