"""Monte Carlo experiment engine.

Seeded replications with common random numbers across policies, episode
trajectory logging, time-average cost statistics, and the truncation-cap
divergence probe used to corroborate the stability criterion.

monte_carlo steps all replications of a policy together as lanes of
dynamics.step_lanes. run_episode runs one replication slot by slot through
dynamics.step_system_traced; it writes the --trace trajectories and is the
oracle the lockstep engine matches bit for bit.
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
from .mdp import ActionSet, StateSpace
from .model import SystemSpec
from .policies import Policy, TablePolicy

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
    With decompose, monte_carlo also reports each sensor's mean penalty.
    """

    system: SystemSpec
    policies: Sequence[Policy]
    horizon: int
    replications: int
    base_seed: int
    warmup: int = 0
    decompose: bool = False

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
    per_sensor_mean: Optional[np.ndarray] = None


@dataclass
class ExperimentResult:
    stats: list
    horizon: int
    replications: int
    base_seed: int
    warmup: int

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

    Stage costs accrue at the post-transition state for slots after the
    warmup. If a sink (csv.writer-like) is attached, one row per
    (slot, sensor) is emitted in the trajectory format.
    """
    if horizon <= warmup:
        raise ValueError("horizon must exceed warmup")
    env_rng, pol_rng = _episode_rngs(seed)
    policy.reset(pol_rng)
    state = initial_state(spec)
    total = 0.0
    for t in range(1, horizon + 1):
        action = policy.decide(state)
        state, cost, draws = step_system_traced(state, action, spec, env_rng)
        if t > warmup:
            total += cost
        if sink is not None:
            for i, s in enumerate(spec.sensors):
                st = state.sensors[i]
                delivered = bool(action[i]) and draws.deliveries[i]
                sink.writerow(
                    [
                        t,
                        state.theta,
                        i + 1,
                        st.aoli,
                        st.aori,
                        int(action[i]),
                        int(draws.arrivals[i]),
                        int(delivered),
                        s.penalty(st.aori),
                    ]
                )
    return EpisodeResult(total / (horizon - warmup), state)


def monte_carlo(plan: ExperimentPlan) -> ExperimentResult:
    """Independent replications per policy with common random numbers.

    Replication r is lane r: every policy's lanes start at the canonical
    state and advance slot by slot together. Lane r's environment uniforms
    come from the env stream of seed base_seed + r, drawn in blocks of whole
    slots that every policy reads, and its policy stream (for the randomized
    policy) is the one run_episode would reset the policy with. Each lane
    thus replays run_episode(seed=base_seed + r) and its mean is bit for bit
    the same. Deterministic given the plan; the 95% interval half-width uses
    the normal approximation over replication means.
    """
    spec = plan.system
    n, reps = spec.n_sensors, plan.replications
    seeds = range(plan.base_seed, plan.base_seed + reps)
    actions = ActionSet(n, spec.m_budget)
    schedules = np.array(actions.actions, dtype=bool).T
    tables = lane_tables(spec)
    policies = plan.policies
    lanes = [lane_state(initial_state(spec), reps)] * len(policies)
    policy_rngs = [[_episode_rngs(seed)[1] for seed in seeds] for _ in policies]
    # per policy: summed stage cost per lane, or summed penalty per sensor and lane
    sums = np.zeros((len(policies), n, reps) if plan.decompose else (len(policies), reps))
    env_rngs = [_episode_rngs(seed)[0] for seed in seeds]
    span = max(1, BLOCK_LANE_SLOTS // reps)
    for start in range(0, plan.horizon, span):
        slots = min(span, plan.horizon - start)
        # block[s] holds slot start + s: one column of 1 + 2N uniforms per lane
        block = np.empty((slots, 1 + 2 * n, reps))
        for r, rng in enumerate(env_rngs):
            block[:, :, r] = rng.random((slots, 1 + 2 * n))
        for k, policy in enumerate(policies):
            state = lanes[k]
            for t, u in enumerate(block, start):
                idx = policy.decide_array(
                    actions, state.theta, state.aoli, state.aori, state.arrival, t, policy_rngs[k]
                )
                state, penalties = step_lanes(state, schedules[:, idx], u, tables)
                if t >= plan.warmup:
                    sums[k] += penalties if plan.decompose else lane_cost(penalties)
            lanes[k] = state

    measured = plan.horizon - plan.warmup
    stats = []
    for policy, total in zip(policies, sums):
        means = total / measured
        rep_means = lane_cost(means) if plan.decompose else means
        mean = float(rep_means.mean())
        sd = float(rep_means.std(ddof=1)) if reps > 1 else 0.0
        ci = 1.96 * sd / np.sqrt(reps)
        stats.append(
            PolicyStats(
                policy.name,
                mean,
                sd,
                float(ci),
                rep_means,
                means.mean(axis=1) if plan.decompose else None,
            )
        )
    return ExperimentResult(
        stats, plan.horizon, plan.replications, plan.base_seed, plan.warmup
    )


def with_caps(spec: SystemSpec, cap_aori: int, cap_aoli: Optional[int] = None) -> SystemSpec:
    """Copy of the system with every sensor's truncation caps replaced."""
    if cap_aoli is None:
        cap_aoli = cap_aori
    sensors = tuple(
        dataclasses.replace(s, max_aoli=cap_aoli, max_aori=cap_aori)
        for s in spec.sensors
    )
    return dataclasses.replace(spec, sensors=sensors)


@dataclass
class CapResult:
    cap: int
    mean: float
    sd: float
    ci95: float


def _default_sisp_factory(system: SystemSpec) -> Policy:
    values = decomposed.solve_sisp_values(system)
    space = StateSpace(system)
    actions = ActionSet(system.n_sensors, system.m_budget)
    table = decomposed.build_policy_table(values, space, actions, system)
    return TablePolicy("sisp", space, table)


def divergence_probe(
    spec: SystemSpec,
    caps: Sequence[int],
    horizon: int,
    seed: int,
    replications: int = 100,
    warmup: int = 0,
    policy_factory=None,
) -> list:
    """Simulated time-average cost across truncation caps.

    On a stable parameter point the cost plateaus as the cap grows; on a
    point violating the spectral-radius condition it keeps increasing, the
    truncated signature of an unbounded objective. The scheduling policy is
    rebuilt per cap (structure-informed by default).
    """
    if policy_factory is None:
        policy_factory = _default_sisp_factory
    out = []
    for cap in caps:
        system = with_caps(spec, cap)
        policy = policy_factory(system)
        plan = ExperimentPlan(
            system, [policy], horizon, replications, seed, warmup=warmup
        )
        stats = monte_carlo(plan).stats[0]
        out.append(CapResult(int(cap), stats.mean, stats.sd, stats.ci95))
    return out
