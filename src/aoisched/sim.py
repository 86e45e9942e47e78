"""Monte Carlo experiment engine.

Seeded replications with common random numbers across policies, episode
trajectory logging, time-average cost statistics, and the truncation-cap
divergence probe (SISP from its per-sensor values, no joint space per cap).

monte_carlo steps every replication of every policy together, as the lanes
of one dynamics.step_lanes call per slot, and writes lane 0's trajectory of
each policy (the --trace files) a block of slots at a time. run_episode
runs one replication slot by slot through dynamics.step_system_traced,
deciding on one lane; it is the oracle the lockstep engine matches bit for
bit, means and trajectories alike.
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
from .mdp import VALUE_FORMAT, ActionSet
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

# Replication-slots of uniforms that monte_carlo draws per block: it bounds
# the environment block, tiled over P policies, to 8 (1 + 2N) P times this
# many bytes, whatever the horizon and the replication count
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

    The policy decides on the state as one lane, from policy.uniforms fresh
    draws of the policy stream per slot. Stage costs accrue at the
    post-transition state for slots after the warmup. If a sink (a text
    stream) is attached, one CSV row per (slot, sensor) is written to it in
    the trajectory format, each ended by "\r\n".
    """
    if horizon <= warmup:
        raise ValueError("horizon must exceed warmup")
    env_rng, pol_rng = _episode_rngs(seed)
    actions = ActionSet(spec.n_sensors, spec.m_budget)
    state = initial_state(spec)
    total = 0.0
    for t in range(1, horizon + 1):
        u = pol_rng.random((policy.uniforms, 1))
        idx = policy.decide_array(actions, lane_state(state, 1), t - 1, u)
        action = actions.actions[idx[0]]
        state, cost, draws = step_system_traced(state, action, spec, env_rng)
        if t > warmup:
            total += cost
        if sink is not None:
            for i, (s, st) in enumerate(zip(spec.sensors, state.sensors)):
                delivered = bool(action[i]) and draws.deliveries[i]
                flags = map(int, (action[i], draws.arrivals[i], delivered))
                cells = [t, state.theta, i + 1, st.aoli, st.aori, *flags]
                penalty = format(s.penalty(st.aori), VALUE_FORMAT)
                sink.write(",".join(map(str, cells)) + f",{penalty}\r\n")
    return EpisodeResult(total / (horizon - warmup), state)


def _draw_block(rngs, slots: int, width: int, lanes: int) -> np.ndarray:
    """(slots, width, lanes) uniforms: column r of a slot holds that slot's
    `width` draws of rngs[r]. With no rngs (width 0) nothing is drawn."""
    block = np.empty((slots, width, lanes))
    for r, rng in enumerate(rngs):
        block[:, :, r] = rng.random((slots, width))
    return block


def _trajectory_rows(t0: int, block, penalty_cells) -> str:
    """The trajectory rows of slots t0, t0 + 1, ... as CSV text.

    block[s] holds slot t0 + s's theta, aoli, aori, scheduled, arrived and
    delivered, one int per sensor each; penalty_cells[i][aori] is sensor
    i's penalty cell. Cells are joined by commas and each row is ended by
    "\r\n", as cli._Writer writes the header.
    """
    lines = []
    for t, (theta, *cols) in enumerate(block, t0):
        for i, (aoli, aori, scheduled, arrived, delivered) in enumerate(zip(*cols)):
            lines.append(
                f"{t},{theta[i]},{i + 1},{aoli},{aori},{scheduled},{arrived},{delivered},"
                f"{penalty_cells[i][aori]}\r\n"
            )
    return "".join(lines)


def monte_carlo(plan: ExperimentPlan, sinks: Optional[Sequence] = None) -> ExperimentResult:
    """Independent replications per policy with common random numbers.

    Replication r of policy k is lane k * R + r of one lockstep run (R
    replications): every lane starts at the canonical state, each policy
    decides on its own R lanes, and one step_lanes call per slot advances
    them all. Lane r's environment uniforms come from the env stream of
    seed base_seed + r, drawn in blocks of whole slots and tiled over the
    policies. A policy that draws (policy.uniforms > 0) reads its uniforms
    from fresh policy streams of the same seeds, drawn in the same blocks;
    these are the draws run_episode makes. Each lane thus replays
    run_episode(seed=base_seed + r), and its mean is bit for bit the same,
    whichever policies run beside it.

    sinks, if given, holds one text stream or None per policy; a policy's
    stream gets lane 0's rows, the text run_episode(seed=base_seed,
    sink=...) writes, once per block. Deterministic given the plan; the
    95% interval half-width uses the normal approximation over replication
    means.
    """
    spec = plan.system
    n, reps = spec.n_sensors, plan.replications
    policies = plan.policies
    seeds = range(plan.base_seed, plan.base_seed + reps)
    actions = ActionSet(n, spec.m_budget)
    schedules = actions.schedules.T.astype(bool)
    tables = lane_tables(spec)
    lanes = [slice(k * reps, (k + 1) * reps) for k in range(len(policies))]
    state = lane_state(initial_state(spec), len(policies) * reps)
    env_rngs = [_episode_rngs(seed)[0] for seed in seeds]
    policy_rngs = [
        [_episode_rngs(seed)[1] for seed in seeds] if p.uniforms else [] for p in policies
    ]
    sinks = [None] * len(policies) if sinks is None else sinks
    traced = [
        (lane.start, sink) for lane, sink in zip(lanes, sinks, strict=True) if sink is not None
    ]
    lane0 = np.array([first for first, _ in traced], dtype=np.intp)
    penalty_cells = [[format(v, VALUE_FORMAT) for v in row] for row in tables.penalty.tolist()]
    idx = np.empty(len(policies) * reps, dtype=np.intp)
    sums = np.zeros(len(policies) * reps)  # summed stage cost per lane
    span = max(1, BLOCK_LANE_SLOTS // reps)
    for start in range(0, plan.horizon, span):
        slots = min(span, plan.horizon - start)
        # env[s] holds slot start + s: one column of 1 + 2N uniforms per lane
        env = np.tile(_draw_block(env_rngs, slots, 1 + 2 * n, reps), len(policies))
        draws = [
            _draw_block(rngs, slots, p.uniforms, reps) for p, rngs in zip(policies, policy_rngs)
        ]
        # trace[s]: slot start + s of each traced lane 0, by column and sensor
        trace = np.empty((slots, 6, n, len(traced)), dtype=np.int64)
        for s, u in enumerate(env):
            t = start + s
            for policy, lane, u_policy in zip(policies, lanes, draws):
                idx[lane] = policy.decide_array(
                    actions, state._make(a[..., lane] for a in state), t, u_policy[s]
                )
            scheduled = schedules[:, idx]
            state, penalties, delivered = step_lanes(state, scheduled, u, tables)
            if t >= plan.warmup:
                sums += lane_cost(penalties)
            if traced:
                columns = (state.aoli, state.aori, scheduled, state.arrival, delivered)
                trace[s, 0] = state.theta[lane0]
                for c, col in enumerate(columns, 1):
                    trace[s, c] = col[:, lane0]
        for j, (_, sink) in enumerate(traced):
            sink.write(_trajectory_rows(start + 1, trace[..., j].tolist(), penalty_cells))

    measured = plan.horizon - plan.warmup
    stats = []
    for policy, total in zip(policies, sums.reshape(len(policies), reps)):
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
