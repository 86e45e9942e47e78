"""The lockstep Monte Carlo engine against the scalar episode, bit for bit.

sim.monte_carlo advances all replications of a policy together through
dynamics.step_lanes; sim.run_episode advances one replication slot by slot
through dynamics.step_system_traced. With the same seeds every replication
mean must be the same float, and the trajectory monte_carlo writes for
replication 0 must be the rows run_episode writes, cell for cell as the CLI
prints them.
"""

import re
from pathlib import Path

import numpy as np
import pytest

from aoisched import cli, mdp, policies as pol, sim

from test_cli import write_config
from test_tables import MARKOV_YAML

TWO_SENSOR = Path(__file__).resolve().parents[1] / "configs" / "twosensor.yaml"


class _CellSink:
    """The cells of the CSV rows written to it; every write holds whole rows,
    each ended by "\r\n"."""

    def __init__(self):
        self.rows = []

    def write(self, text):
        *lines, rest = text.split("\r\n")
        assert rest == "" and not any("\n" in line for line in lines)
        self.rows.extend(line.split(",") for line in lines)


def assert_matches_episodes(spec, policies, horizon, reps, seed, warmup=0):
    plan = sim.ExperimentPlan(spec, policies, horizon, reps, seed, warmup=warmup)
    sinks = [_CellSink() for _ in policies]
    stats = sim.monte_carlo(plan, sinks)
    for policy, st, sink in zip(policies, stats, sinks):
        trace = _CellSink()
        episodes = [sim.run_episode(spec, policy, horizon, seed, warmup, sink=trace)] + [
            sim.run_episode(spec, policy, horizon, seed + r, warmup) for r in range(1, reps)
        ]
        assert np.array_equal(st.rep_means, episodes), policy.name
        assert st.mean == float(np.mean(episodes)), policy.name
        assert len(sink.rows) == horizon * spec.n_sensors, policy.name
        assert sink.rows == trace.rows, policy.name


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


@pytest.mark.parametrize("block", [1, 7])
def test_markov_every_policy_with_warmup(tmp_path, monkeypatch, block):
    monkeypatch.setattr(sim, "BLOCK_LANE_SLOTS", block)
    path, _ = write_config(tmp_path, MARKOV_YAML)
    cfg = cli.load_config(str(path))
    cache = {}
    policies = [cli._build_policy(name, cfg, cache) for name in pol.POLICY_NAMES]
    assert_matches_episodes(cfg.system, policies, horizon=45, reps=3, seed=13, warmup=25)


def test_markov_budget_two_with_overflowing_rand(tmp_path):
    path, _ = write_config(tmp_path, MARKOV_YAML)
    cfg = cli.load_config(str(path))
    optimal = cli._build_policy("optimal", cfg, {})
    # all three sensors fire with probability 0.729, over the budget of 2
    rand = pol.RandomizedSchedule((0.9, 0.9, 0.9), 2)
    assert_matches_episodes(cfg.system, [optimal, rand], horizon=400, reps=5, seed=3, warmup=25)


def test_stacked_policies_run_as_if_alone(twosensor):
    """Each policy's replication means are the same floats whether it runs
    alone or with every other policy, the randomized one included, and
    whatever its position in the plan."""
    spec, policies = twosensor
    stacked = policies + [pol.RandomizedSchedule((0.9, 0.9), 1)]
    for plan_policies in (stacked, stacked[::-1]):
        plan = sim.ExperimentPlan(spec, plan_policies, 200, 4, 17, warmup=20)
        for policy, st in zip(plan_policies, sim.monte_carlo(plan)):
            alone = sim.ExperimentPlan(spec, [policy], 200, 4, 17, warmup=20)
            means = sim.monte_carlo(alone)[0].rep_means
            assert st.rep_means.tobytes() == means.tobytes(), policy.name


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
            sim.monte_carlo(sim.ExperimentPlan(spec, [policy], 5, 2, 0, 0))
