"""The lockstep Monte Carlo engine against the scalar episode, bit for bit.

sim.monte_carlo advances all replications of a policy together through
dynamics.step_lanes; sim.run_episode advances one replication slot by slot
through dynamics.step_system_traced. With the same seeds every replication
mean must be the same float.
"""

import re
from pathlib import Path

import numpy as np
import pytest

from aoisched import cli, mdp, policies as pol, sim

from test_cli import write_config
from test_tables import MARKOV_YAML

TWO_SENSOR = Path(__file__).resolve().parents[1] / "configs" / "twosensor.yaml"


def assert_matches_episodes(spec, policies, horizon, reps, seed, warmup=0):
    plan = sim.ExperimentPlan(spec, policies, horizon, reps, seed, warmup=warmup)
    result = sim.monte_carlo(plan)
    for policy, st in zip(policies, result.stats):
        episodes = [
            sim.run_episode(spec, policy, horizon, seed + r, warmup).avg_cost
            for r in range(reps)
        ]
        assert np.array_equal(st.rep_means, episodes), policy.name
        assert st.mean == float(np.mean(episodes)), policy.name


@pytest.fixture(scope="module")
def twosensor():
    cfg = cli.load_config(str(TWO_SENSOR))
    cache = {}
    return cfg.system, [cli._build_policy(name, cfg, cache) for name in pol.POLICY_NAMES]


def test_every_policy_matches_episodes(twosensor):
    spec, policies = twosensor
    assert_matches_episodes(spec, policies, horizon=300, reps=6, seed=42)


@pytest.mark.parametrize(
    "horizon, reps, warmup", [(120, 3, 40), (150, 1, 0), (1, 4, 0)]
)
def test_warmup_and_degenerate_shapes(twosensor, horizon, reps, warmup):
    spec, policies = twosensor
    assert_matches_episodes(spec, policies, horizon, reps, seed=9, warmup=warmup)


@pytest.mark.parametrize("block", [1, 7])
def test_block_size_does_not_change_results(twosensor, monkeypatch, block):
    # 7 lane-slots over 3 replications: blocks of 2 slots, the last one short
    monkeypatch.setattr(sim, "BLOCK_LANE_SLOTS", block)
    spec, policies = twosensor
    assert_matches_episodes(spec, policies, horizon=61, reps=3, seed=5, warmup=10)


def test_markov_budget_two_with_overflowing_rand(tmp_path):
    path, _ = write_config(tmp_path, MARKOV_YAML)
    cfg = cli.load_config(str(path))
    optimal = cli._build_policy("optimal", cfg, {})
    # all three sensors fire with probability 0.729, over the budget of 2
    rand = pol.RandomizedSchedule((0.9, 0.9, 0.9), 2)
    assert_matches_episodes(cfg.system, [optimal, rand], horizon=400, reps=5, seed=3, warmup=25)


def test_decomposed_means_sum_to_the_episode_means(twosensor):
    spec, policies = twosensor
    plan = sim.ExperimentPlan(spec, policies[:3], 200, 4, 11, warmup=20, decompose=True)
    for policy, st in zip(policies[:3], sim.monte_carlo(plan).stats):
        episodes = [sim.run_episode(spec, policy, 200, 11 + r, 20).avg_cost for r in range(4)]
        np.testing.assert_allclose(st.rep_means, episodes, rtol=1e-12)
        assert st.per_sensor_mean.shape == (2,)


def test_infeasible_action_raises_like_the_scalar_step(twosensor):
    spec, _ = twosensor
    space = mdp.StateSpace(spec)
    both = mdp.ActionSet(2, 2)
    table = mdp.PolicyTable(np.full(space.n_states, both.index((1, 1))), both)
    message = re.escape("infeasible action (1, 1) (budget 1 of 2)")
    for policy in (pol.TablePolicy("both", space, table), pol.MafPolicy(2)):
        with pytest.raises(ValueError, match=message):
            sim.run_episode(spec, policy, 5, seed=0)
        with pytest.raises(ValueError, match=message):
            sim.monte_carlo(sim.ExperimentPlan(spec, [policy], 5, 2, 0))
