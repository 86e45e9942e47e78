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
"""

from __future__ import annotations

import itertools
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
    cost_vector,
    factor_rows,
    reachable_chain,
    relative_value_iteration,
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


class RoundRobinPolicy(Policy):
    name = "rr"

    def __init__(self, n: int, m: int):
        self.n = n
        self.m = m

    def decide_array(self, actions, lanes, t, u):
        # after t decisions the cursor has advanced by t * m
        action, _ = round_robin_decide(t * self.m % self.n, self.n, self.m)
        return _lane_actions(actions, np.full(len(lanes.theta), _action_code(action)))


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
            prob *= p[i] if (fired_mask >> i & 1) else 1.0 - p[i]
        if prob == 0.0:
            continue
        if len(fired) <= m:
            action = tuple(fired_mask >> i & 1 for i in range(n))
            weights[actions.index(action)] += prob
        else:
            subsets = list(itertools.combinations(fired, m))
            share = prob / len(subsets)
            for subset in subsets:
                action = tuple(1 if i in subset else 0 for i in range(n))
                weights[actions.index(action)] += share
    return weights


class IdlePolicy(Policy):
    name = "idle"

    def __init__(self, n: int):
        self.action = tuple(0 for _ in range(n))

    def decide_array(self, actions, lanes, t, u):
        return _lane_actions(actions, np.full(len(lanes.theta), _action_code(self.action)))


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
    """Chain of round robin on the state space augmented with the cursor,
    over the augmented states reachable from the start only, lumped on
    (cursor, distinct row) keys.

    The cursor advances by M (mod N) every slot independent of the state,
    so the augmented pair (state, cursor) is Markov. Augmented state
    cursor * n_states + s, cursor-major, takes distinct row row_of[s] of
    space.factors under the cursor's action, generated by factor_rows with
    its columns moved into the next cursor's block; the start is
    space.reference_index() at cursor 0. Returns the Chain of
    mdp.reachable_chain, whose rep columns are augmented states.
    """
    n, n_states, factors = space.n_sensors, space.n_states, space.factors
    schedule = [round_robin_decide(cursor, n, space.spec.m_budget) for cursor in range(n)]

    # the augmented columns in int32 where they fit, the dtype scipy's
    # constructor gave them
    index_dtype = np.int32 if n * n_states <= np.iinfo(np.int32).max else np.int64

    def make(cursor, rows):
        action, nxt = schedule[cursor]
        data, indices, indptr = factor_rows(factors, action, rows)
        return data, np.add(indices, nxt * n_states, dtype=index_dtype), indptr

    def locate(states):
        cursor, s = np.divmod(states, n_states)
        return cursor, factors.row_of[s]

    return reachable_chain(
        make, locate, (n, factors.n_rows), space.reference_index(), n * n_states
    )
