"""Monte Carlo experiment engine.

Seeded replications with common random numbers across policies, episode
trajectory logging, time-average cost statistics, and the truncation-cap
divergence probe (SISP from its per-sensor values, no joint space per cap).

monte_carlo steps all replications of a policy together as lanes of
dynamics.step_lanes, and writes lane 0's trajectory (the --trace files) as
it steps. run_episode runs one replication slot by slot through
dynamics.step_system_traced, deciding on one lane; it is the oracle the
lockstep engine matches bit for bit, means and trajectories alike.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import decomposed
from .dynamics import (
    initial_state,
    lane_cost,
    lane_state,
    lane_tables,
    step_lanes,
    step_system_traced,
)
from .mdp import ActionSet
from .model import SystemSpec
from .policies import Policy

__all__ = [
    "ExperimentPlan",
    "EpisodeResult",
    "PolicyStats",
    "ExperimentResult",
    "run_episode",
    "monte_carlo",
    "CapResult",
    "divergence_probe",
    "with_caps",
]

# Replication-slots of environment uniforms that monte_carlo draws per block:
# it bounds the block to 8 (1 + 2N) times this many bytes, whatever the
# horizon and the replication count
BLOCK_LANE_SLOTS = 1 << 12


@dataclass
class ExperimentPlan:
    """One comparison run: common seeds, same horizon, several policies.

    Replication r derives its random streams from base_seed + r, so every
    policy sees identical channel and arrival draws in a given replication.
    """

    system: SystemSpec
    policies: Sequence[Policy]
    horizon: int
    replications: int
    base_seed: int
    warmup: int = 0

    def __post_init__(self) -> None:
        if self.horizon <= self.warmup:
            raise ValueError("horizon must exceed warmup")
        if self.replications < 1:
            raise ValueError("need at least one replication")


@dataclass
class EpisodeResult:
    avg_cost: float
    final_state: object


@dataclass
class PolicyStats:
    name: str
    mean: float
    sd: float
    ci95: float
    rep_means: np.ndarray


@dataclass
class ExperimentResult:
    stats: list

    def by_name(self, name: str) -> PolicyStats:
        for s in self.stats:
            if s.name == name:
                return s
        raise KeyError(name)


def _episode_rngs(seed: int) -> tuple:
    """Independent env and policy streams derived from one episode seed."""
    env_ss, pol_ss = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(env_ss), np.random.default_rng(pol_ss)


def run_episode(
    spec: SystemSpec,
    policy: Policy,
    horizon: int,
    seed: int,
    warmup: int = 0,
    sink=None,
) -> EpisodeResult:
    """Simulate one episode from the canonical start state, slot by slot.

    The policy decides on the state as one lane. Stage costs accrue at the
    post-transition state for slots after the warmup. If a sink
    (csv.writer-like) is attached, one row per (slot, sensor) is emitted in
    the trajectory format.
    """
    if horizon <= warmup:
        raise ValueError("horizon must exceed warmup")
    env_rng, pol_rng = _episode_rngs(seed)
    actions = ActionSet(spec.n_sensors, spec.m_budget)
    state = initial_state(spec)
    total = 0.0
    for t in range(1, horizon + 1):
        idx = policy.decide_array(actions, *lane_state(state, 1), t - 1, [pol_rng])
        action = actions.actions[idx[0]]
        state, cost, draws = step_system_traced(state, action, spec, env_rng)
        if t > warmup:
            total += cost
        if sink is not None:
            for i, (s, st) in enumerate(zip(spec.sensors, state.sensors)):
                delivered = bool(action[i]) and draws.deliveries[i]
                flags = map(int, (action[i], draws.arrivals[i], delivered))
                sink.writerow([t, state.theta, i + 1, st.aoli, st.aori, *flags, s.penalty(st.aori)])
    return EpisodeResult(total / (horizon - warmup), state)


def _write_lane0(sink, t: int, state, scheduled, delivered, penalties) -> None:
    """Lane 0's rows of slot t, as run_episode writes them."""
    cols = [a[:, 0] for a in (state.aoli, state.aori, scheduled, state.arrival, delivered)]
    theta = int(state.theta[0])
    for i, (row, penalty) in enumerate(zip(np.column_stack(cols).tolist(), penalties[:, 0])):
        sink.writerow([t, theta, i + 1, *row, float(penalty)])


def monte_carlo(plan: ExperimentPlan, sinks: Optional[Sequence] = None) -> ExperimentResult:
    """Independent replications per policy with common random numbers.

    Replication r is lane r: every policy's lanes start at the canonical
    state and advance slot by slot together. Lane r's environment uniforms
    come from the env stream of seed base_seed + r, drawn in blocks of whole
    slots that every policy reads, and its policy stream (for the randomized
    policy) is the one run_episode draws from. Each lane thus replays
    run_episode(seed=base_seed + r) and its mean is bit for bit the same.
    sinks, if given, holds one csv.writer-like object or None per policy;
    a policy's sink gets lane 0's rows, the rows run_episode(seed=base_seed,
    sink=...) writes. Deterministic given the plan; the 95% interval
    half-width uses the normal approximation over replication means.
    """
    spec = plan.system
    n, reps = spec.n_sensors, plan.replications
    seeds = range(plan.base_seed, plan.base_seed + reps)
    actions = ActionSet(n, spec.m_budget)
    schedules = np.array(actions.actions, dtype=bool).T
    tables = lane_tables(spec)
    policies = plan.policies
    sinks = [None] * len(policies) if sinks is None else sinks
    lanes = [lane_state(initial_state(spec), reps)] * len(policies)
    policy_rngs = [[_episode_rngs(seed)[1] for seed in seeds] for _ in policies]
    sums = np.zeros((len(policies), reps))  # summed stage cost per policy and lane
    env_rngs = [_episode_rngs(seed)[0] for seed in seeds]
    span = max(1, BLOCK_LANE_SLOTS // reps)
    for start in range(0, plan.horizon, span):
        slots = min(span, plan.horizon - start)
        # block[s] holds slot start + s: one column of 1 + 2N uniforms per lane
        block = np.empty((slots, 1 + 2 * n, reps))
        for r, rng in enumerate(env_rngs):
            block[:, :, r] = rng.random((slots, 1 + 2 * n))
        for k, (policy, sink) in enumerate(zip(policies, sinks, strict=True)):
            state = lanes[k]
            for t, u in enumerate(block, start):
                idx = policy.decide_array(actions, *state, t, policy_rngs[k])
                scheduled = schedules[:, idx]
                state, penalties, delivered = step_lanes(state, scheduled, u, tables)
                if t >= plan.warmup:
                    sums[k] += lane_cost(penalties)
                if sink is not None:
                    _write_lane0(sink, t + 1, state, scheduled, delivered, penalties)
            lanes[k] = state

    measured = plan.horizon - plan.warmup
    stats = []
    for policy, total in zip(policies, sums):
        rep_means = total / measured
        mean = float(rep_means.mean())
        sd = float(rep_means.std(ddof=1)) if reps > 1 else 0.0
        ci = 1.96 * sd / np.sqrt(reps)
        stats.append(PolicyStats(policy.name, mean, sd, float(ci), rep_means))
    return ExperimentResult(stats)


def with_caps(spec: SystemSpec, cap: int) -> SystemSpec:
    """Copy of the system with both truncation caps of every sensor set to cap."""
    sensors = tuple(dataclasses.replace(s, max_aoli=cap, max_aori=cap) for s in spec.sensors)
    return dataclasses.replace(spec, sensors=sensors)


@dataclass
class CapResult:
    cap: int
    mean: float
    sd: float
    ci95: float


def divergence_probe(
    spec: SystemSpec,
    caps: Sequence[int],
    horizon: int,
    seed: int,
    replications: int = 100,
    warmup: int = 0,
    p_r: Optional[Sequence[float]] = None,
) -> list:
    """Simulated time-average cost of SISP across truncation caps.

    On a stable parameter point the cost plateaus as the cap grows; on a
    point violating the spectral-radius condition it keeps increasing, the
    truncated signature of an unbounded objective. SISP decides from the
    per-sensor values, solved per cap under the scheduling probabilities
    p_r (arrival-rate proportional when None), with no joint space; at the
    system's own caps it is the policy `simulate --policies sisp` runs.
    """
    out = []
    for cap in caps:
        system = with_caps(spec, cap)
        policy = decomposed.SispPolicy(decomposed.solve_sisp_values(system, p_r))
        plan = ExperimentPlan(system, [policy], horizon, replications, seed, warmup=warmup)
        stats = monte_carlo(plan).stats[0]
        out.append(CapResult(int(cap), stats.mean, stats.sd, stats.ci95))
    return out
