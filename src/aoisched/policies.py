"""Baseline scheduling policies sharing one decision interface.

Covers the comparison set: the solved optimal table, max-age-first,
max-error-first, round robin, randomized with budget thinning, the myopic
single-age baseline and always-idle; SISP is decomposed.SispPolicy.

Each policy object is stateless and has one decision rule, decide_array.
A policy that draws reads a fixed number of uniforms per lane and slot
(Policy.uniforms), which the caller draws from the lane's policy stream; so
the Monte Carlo engine can draw them in blocks, as it does the environment's.
The module-level maf_decide, mef_decide, round_robin_decide and
randomized_decide state the same rules for one state at a time; the tests
check decide_array against them.

Round robin, the randomized schedule and idle never read the state, and
give their schedule (Policy.schedule) instead: exact_cost evaluates them
on one chain per sensor, the paper's per-sensor decomposition, and every
other policy on the chain of its table.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import replace
from typing import Sequence

import numpy as np

from .dynamics import JointState, LaneState
from .mdp import (
    ActionSet,
    Chain,
    PolicyTable,
    StateSpace,
    build_kernels,
    chain_average_cost,
    cost_vector,
    mixture_chain_matrix,
    policy_chain_matrix,
    relative_value_iteration,
    sensor_space,
)
from .model import BernoulliArrival, SystemSpec, penalty_rows

__all__ = [
    "Policy",
    "TablePolicy",
    "maf_decide",
    "MafPolicy",
    "mef_decide",
    "MefPolicy",
    "round_robin_decide",
    "CursorPolicy",
    "RoundRobinPolicy",
    "randomized_decide",
    "RandomizedSchedule",
    "randomized_action_weights",
    "IdlePolicy",
    "myopic_system",
    "build_myopic_policy",
    "MyopicPolicy",
    "policy_to_table",
    "round_robin_chain",
    "exact_chains",
    "exact_cost",
    "POLICY_NAMES",
]

POLICY_NAMES = ("optimal", "sisp", "maf", "mef", "rr", "rand", "myopic", "idle")


class Policy:
    """Decision interface of the simulator and of tabulation.

    decide_array is the decision rule: it maps the states of many lanes to
    action indices at once, and serves the Monte Carlo engine, the scalar
    episode (sim.run_episode, one lane) and policy_to_table. A policy holds
    no per-episode state: the slot count t and the policy's uniforms are
    arguments. `uniforms` is the number of uniforms one lane reads per slot;
    only the randomized policy reads any.
    """

    name = "policy"
    uniforms = 0

    def decide_array(self, actions: ActionSet, lanes: LaneState, t: int, u) -> np.ndarray:
        """Index into `actions` of the decision in every lane of `lanes`.

        t counts the decisions since the episode start, and u is the
        (uniforms, lanes) array of this slot's policy uniforms, one column
        per lane. Raises ValueError on a schedule over the budget of
        `actions`.
        """
        raise NotImplementedError

    def schedule(self, actions: ActionSet):
        """The schedule of a policy that never reads the state, the argument
        of mixture_chain_matrix over `actions`: per cursor, the weight of
        each action and the next cursor. None for a policy that reads it."""
        return None


def _action_code(action) -> int:
    """Bitmask of a schedule, sensor 0 the low bit."""
    return sum(bit << i for i, bit in enumerate(action))


def _lane_actions(actions: ActionSet, codes) -> np.ndarray:
    """Indices into `actions` of schedule bitmasks; an over-budget schedule
    raises the ValueError of dynamics.step_system."""
    idx = actions.code_index[codes]
    if idx.min() < 0:
        code = int(codes[np.argmin(idx)])
        action = tuple((code >> i) & 1 for i in range(actions.n))
        raise ValueError(f"infeasible action {action} (budget {actions.m} of {actions.n})")
    return idx


class TablePolicy(Policy):
    """Lookup policy over the states of its space: the closed sub-grid for
    the optimal table of compare and simulate, the full grid for the myopic
    table. A lane is decided by one encode and one gather of its state's
    schedule; a lane outside the space is refused by encode_array."""

    def __init__(self, name: str, space: StateSpace, table: PolicyTable):
        self.name = name
        self.space = space
        self.table = table
        # the schedule bitmask of every state's action
        codes = np.array([_action_code(a) for a in table.action_set.actions])
        self._codes = codes[table.action_index]

    def decide_array(self, actions, lanes, t, u):
        return _lane_actions(actions, self._codes[self.space.encode_array(lanes)])


def _top_m(scores: Sequence[float], m: int) -> tuple:
    """Schedule the m highest scores; ties go to the lowest sensor index."""
    n = len(scores)
    order = sorted(range(n), key=lambda i: (-scores[i], i))
    action = [0] * n
    for i in order[:m]:
        action[i] = 1
    return tuple(action)


def _top_m_array(actions: ActionSet, scores: np.ndarray, m: int) -> np.ndarray:
    """_top_m in every lane: scores has one row per sensor. A stable sort
    on -score keeps the lowest sensor index first among ties."""
    top = np.argsort(-scores, axis=0, kind="stable")[:m]
    return _lane_actions(actions, (1 << top).sum(axis=0))


def maf_decide(state: JointState, m: int) -> tuple:
    """Schedule the m sensors with the largest monitor-side age."""
    return _top_m([st.aori for st in state.sensors], m)


class MafPolicy(Policy):
    name = "maf"

    def __init__(self, m: int):
        self.m = m

    def decide_array(self, actions, lanes, t, u):
        return _top_m_array(actions, lanes.aori, self.m)


def mef_decide(state: JointState, m: int, spec: SystemSpec) -> tuple:
    """Schedule the m sensors with the largest current penalty."""
    scores = [
        spec.sensors[i].penalty(st.aori) for i, st in enumerate(state.sensors)
    ]
    return _top_m(scores, m)


class MefPolicy(Policy):
    name = "mef"

    def __init__(self, spec: SystemSpec):
        self.m = spec.m_budget
        self._tables = penalty_rows(spec.sensors)

    def decide_array(self, actions, lanes, t, u):
        rows = np.arange(len(self._tables))[:, None]
        return _top_m_array(actions, self._tables[rows, lanes.aori], self.m)


def round_robin_decide(cursor: int, n: int, m: int) -> tuple:
    """Schedule sensors cursor..cursor+m-1 (mod n); returns (action, next cursor)."""
    if not (0 <= cursor < n):
        raise ValueError(f"cursor must lie in [0, {n}), got {cursor}")
    action = [0] * n
    for k in range(m):
        action[(cursor + k) % n] = 1
    return tuple(action), (cursor + m) % n


class CursorPolicy(Policy):
    """A deterministic policy that never reads the state: at cursor c it
    takes the action cycle[c] and moves to cursor (c + step) % len(cycle),
    from cursor 0, so after t decisions its cursor is t * step mod
    len(cycle)."""

    def decide_array(self, actions, lanes, t, u):
        action = self.cycle[t * self.step % len(self.cycle)]
        return _lane_actions(actions, np.full(len(lanes.theta), _action_code(action)))

    def schedule(self, actions):
        eye, k = np.eye(len(actions)), len(self.cycle)
        return [(eye[actions.index(a)], (c + self.step) % k) for c, a in enumerate(self.cycle)]


class RoundRobinPolicy(CursorPolicy):
    """round_robin_decide's action at each of the n cursors, stepping by m."""

    name = "rr"

    def __init__(self, n: int, m: int):
        self.cycle = [round_robin_decide(c, n, m)[0] for c in range(n)]
        self.step = m


def randomized_decide(p: Sequence[float], m: int, u: Sequence[float]) -> tuple:
    """Independent Bernoulli(p_i) firings, thinned uniformly to at most m.

    u holds 2N uniforms: sensor i fires when u[i] < p_i, and when more than
    m fire, the m fired sensors with the smallest keys u[N + i] keep their
    slots, the lower index first on equal keys. The keys are independent of
    the firings, so the kept set is a uniformly random size-m subset of the
    fired set (randomized_action_weights is its exact law).
    """
    n = len(p)
    fired = [i for i in range(n) if u[i] < p[i]]
    kept = sorted(fired, key=lambda i: u[n + i])[:m]  # sorted is stable
    return tuple(int(i in kept) for i in range(n))


class RandomizedSchedule(Policy):
    """randomized_decide in every lane, from 2N policy uniforms per slot."""

    name = "rand"

    def __init__(self, p: Sequence[float], m: int):
        self.p = tuple(p)
        self.m = m
        self.uniforms = 2 * len(self.p)
        self._p = np.array(self.p)[:, None]

    def decide_array(self, actions, lanes, t, u):
        n = len(self.p)
        fired = u[:n] < self._p
        # uniforms lie in [0, 1), so a key of 2 sorts every unfired sensor
        # after the fired ones; the stable sort keeps index order on ties
        keys = np.where(fired, u[n:], 2.0)
        top = np.argsort(keys, axis=0, kind="stable")[: self.m]
        kept = np.take_along_axis(fired, top, axis=0)
        return _lane_actions(actions, (kept << top).sum(axis=0))

    def schedule(self, actions):
        return [(randomized_action_weights(self.p, self.m, actions), 0)]


def randomized_action_weights(
    p: Sequence[float], m: int, actions: ActionSet
) -> np.ndarray:
    """Exact action distribution of the thinned randomized policy.

    Enumerates all 2^N fired subsets; over-budget subsets spread their
    probability uniformly across their size-m subsets. The result aligns
    with `actions` for mixture_chain_matrix.
    """
    n = len(p)
    weights = np.zeros(len(actions))
    for fired_mask in range(1 << n):
        fired = [i for i in range(n) if fired_mask >> i & 1]
        prob = 1.0
        for i in range(n):
            prob *= p[i] if i in fired else 1.0 - p[i]
        # a fired set within the budget is its own one subset: prob / 1
        subsets = list(itertools.combinations(fired, min(m, len(fired))))
        for subset in subsets:
            action = tuple(int(i in subset) for i in range(n))
            weights[actions.index(action)] += prob / len(subsets)
    return weights


class IdlePolicy(CursorPolicy):
    """No sensor scheduled, at the one cursor."""

    name = "idle"

    def __init__(self, n: int):
        self.cycle, self.step = [(0,) * n], 0


def myopic_system(spec: SystemSpec) -> SystemSpec:
    """spec with certain arrivals and no buffer age: the myopic model's system."""
    return replace(
        spec,
        sensors=tuple(
            replace(s, arrival=BernoulliArrival(1.0), max_aoli=0) for s in spec.sensors
        ),
    )


def build_myopic_policy(spec: SystemSpec) -> MyopicPolicy:
    """Solve the single-age generate-at-will model on (aori, theta) only.

    A successful delivery is assumed to reset the monitor age to one, i.e.
    the buffer always holds fresh data. That model is the joint MDP of
    myopic_system(spec): every sensor gets BernoulliArrival(1.0) and
    max_aoli = 0, so its space is indexed by the monitor ages and the
    channel alone. The resulting table deliberately ignores buffer
    staleness; evaluating it under the true dual-age dynamics quantifies
    that model mismatch.

    The model is solved by relative value iteration on its build_kernels
    kernels, stopped on the largest change over every state.
    """
    space = StateSpace(myopic_system(spec))
    vt, pi = relative_value_iteration(
        build_kernels(space), cost_vector(space), space.reference_index()
    )
    return MyopicPolicy(space, PolicyTable(pi, space.action_set), vt.gain)


class MyopicPolicy(TablePolicy):
    """The myopic table on its own space, read at buffer age 0 in every lane;
    that space has no arrival memory either. gain is the myopic model's
    optimal average cost."""

    def __init__(self, space: StateSpace, table: PolicyTable, gain: float):
        super().__init__("myopic", space, table)
        self.gain = gain

    def decide_array(self, actions, lanes, t, u):
        fresh = lanes._replace(aoli=np.zeros_like(lanes.aoli))
        return super().decide_array(actions, fresh, t, u)


def policy_to_table(policy: Policy, space: StateSpace) -> PolicyTable:
    """Tabulate a decision rule over every state of space.

    Only valid for policies whose decision is a function of the state alone
    (not round robin, which reads the slot count, not randomized):
    decide_array over space.action_set at every state of space.
    """
    actions = space.action_set
    return PolicyTable(policy.decide_array(actions, space.lanes, 0, None), actions)


def round_robin_chain(space: StateSpace) -> Chain:
    """Joint chain of round robin on space augmented with its cursor: the
    Chain of mixture_chain_matrix on its schedule, augmented state
    cursor * n_states + s. compare evaluates round robin per sensor
    (exact_chains); this joint chain is the tests' oracle for that, and a
    target of perfbench/tracer.py."""
    schedule = RoundRobinPolicy(space.n_sensors, space.spec.m_budget).schedule(space.action_set)
    return mixture_chain_matrix(schedule, space, space.action_set)


def exact_chains(policy: Policy, space: StateSpace):
    """The (build, cost) pairs whose chain_average_cost(build(), cost)
    values sum to the policy's exact long-run average cost on space, from
    its start. build() makes the chain, so that a caller that hands it
    straight to chain_average_cost holds one chain at a time, whose rep
    is freed before its stationary solve.

    A policy with no schedule has one chain, of its table on space
    (policy_chain_matrix), with space's cost vector. A state-blind one has
    one per sensor. The joint kernel is the channel times per-sensor
    factors and the stage cost a sum of per-sensor penalties, and its
    actions do not depend on the state, so each sensor's (sub-index, theta)
    process, with the schedule's cursor, is a Markov chain by itself, and
    by linearity the policy's cost is the sum of theirs. Sensor i's chain
    is mixture_chain_matrix on its own space (sensor_space), whose actions
    idle and transmit take at each cursor the summed weights of the joint
    actions that idle and schedule sensor i, with the same next cursors.
    """
    schedule = policy.schedule(space.action_set)
    if schedule is None:

        def table_chain():
            return policy_chain_matrix(policy_to_table(policy, space), space)

        yield table_chain, cost_vector(space)
        return
    # split[a, i] is (1, 0) where action a idles sensor i, (0, 1) where it
    # schedules it
    split = np.eye(2)[space.action_set.schedules]
    for i, sensor in enumerate(space.spec.sensors):
        own = sensor_space(sensor, space.spec.channel)
        marginal = [(w @ split[:, i], nxt) for w, nxt in schedule]
        build = functools.partial(mixture_chain_matrix, marginal, own, own.action_set)
        yield build, cost_vector(own)


def exact_cost(policy: Policy, space: StateSpace) -> float:
    """The policy's exact long-run average cost on space: the math.fsum of
    the costs of its exact_chains, which rounds their exact sum once."""
    return math.fsum(chain_average_cost(b(), cost) for b, cost in exact_chains(policy, space))
