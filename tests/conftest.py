"""Shared fixtures: the two-sensor reference instance and solved artifacts."""

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import pytest
from scipy import sparse

import aoisched as a
from aoisched import decomposed, mdp, policies as pol

# Two-sensor reference configuration used throughout the suite: unstable
# 2x2 plant with rho(A) = 1.1, trace penalty, channel (0.5, 0.8),
# success probabilities (0.5, 1.0), caps 7, budget 1.
VA_A = np.array([[1.1, 0.5], [0.0, 0.2]])
VA_C = np.array([[1.0, 1.0]])
VA_SIGMA_W = np.eye(2)
VA_R_MEAS = np.array([[0.8]])
VA_CHANNEL = a.ChannelSpec(0.5, 0.8)


@pytest.fixture(scope="session")
def va_pbar():
    return a.solve_steady_state_covariance(VA_A, VA_C, VA_SIGMA_W, VA_R_MEAS)


@pytest.fixture(scope="session")
def va_penalty(va_pbar):
    return a.EstimationTracePenalty(VA_A, VA_SIGMA_W, va_pbar)


def make_va_sensor(penalty, lam, cap=7, p0=0.5, p1=1.0):
    return a.SensorSpec(a.BernoulliArrival(lam), penalty, p0, p1, cap, cap)


def make_va_system(penalty, lam1, lam2, cap=7, m=1):
    return a.SystemSpec(
        (make_va_sensor(penalty, lam1, cap), make_va_sensor(penalty, lam2, cap)),
        VA_CHANNEL,
        m,
    )


def action_at(table, idx):
    """The schedule a PolicyTable takes at state index idx."""
    return table.action_set.actions[table.action_index[idx]]


def as_scipy(mat):
    """A CSR matrix of the package (mdp's kernels and chains) as a scipy
    matrix on the same arrays."""
    return sparse.csr_matrix((mat.data, mat.indices, mat.indptr), shape=mat.shape)


def stacked_rows(kernels):
    """Each action's distinct rows as one scipy CSR matrix: the blocks of
    every share stacked in row order."""
    blocks = sorted((block for share in kernels.shares for block in share), key=lambda b: b[0])
    return [
        sparse.vstack([as_scipy(mats[a]) for _, _, mats in blocks], format="csr")
        for a in range(len(blocks[0][2]))
    ]


def kernel_rows(space):
    """Every action's distinct rows, in action order, as factor_rows' CSR
    arrays (data, indices, indptr) of every row of space.factors."""
    every = np.arange(space.factors.n_rows)
    return [mdp.factor_rows(space.factors, action, every) for action in space.action_set.actions]


def table_cost(table, space, cost):
    """Exact average cost of a deterministic policy table, on its chain
    from the start."""
    return mdp.chain_average_cost(mdp.policy_chain_matrix(table, space), cost)


@contextmanager
def recorded_chains():
    """Records (chain, its start's key, keys reached, states reached) for
    every chain mdp.reachable_chain builds while open. The states reached
    are the start and every column of a made row, and the keys are
    numbered by their smallest reached state."""
    built = []
    build = mdp.reachable_chain

    def recorded(make, locate, shape, start_index, n):
        chain = build(make, locate, shape, start_index, n)
        states = np.union1d(chain.rep.indices, [start_index])
        flat = np.ravel_multi_index(locate(states), shape)
        _, first, key = np.unique(flat, return_index=True, return_inverse=True)
        start = np.argsort(np.argsort(first))[key[np.searchsorted(states, start_index)]]
        built.append((chain, int(start), len(first), len(states)))
        return chain

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mdp, "reachable_chain", recorded)
        yield built


def stuck_channel(kappa11):
    """A channel that never leaves the bad state. ChannelSpec refuses
    kappa00 = 1, so it is set past the check; the kernels then store
    explicit zeros for the bad-to-good step."""
    channel = a.ChannelSpec(0.5, kappa11)
    object.__setattr__(channel, "kappa00", 1.0)
    return channel


def sensor_index(pv, st, theta, arrived):
    """Index in a PerSensorValue's own space of one sensor's state, channel
    state and arrival memory."""
    return pv.space.encode(a.JointState((st,), theta, (arrived,)))


def region_contains(outer, inner) -> bool:
    """True if every point feasible in region `inner` is feasible in `outer`."""
    return bool(np.all(outer.feasible | ~inner.feasible))


@pytest.fixture(scope="session")
def va_system(va_penalty):
    return make_va_system(va_penalty, 0.9, 0.9)


@pytest.fixture(scope="session")
def va_hetero(va_penalty):
    return make_va_system(va_penalty, 0.9, 0.5)


@dataclass
class SolvedBundle:
    system: object
    space: object
    kernels: object
    cost: np.ndarray
    start: int
    vt: object
    pt: object


def solve_bundle(system) -> SolvedBundle:
    space = mdp.StateSpace(system)
    vt, pt = a.solve_optimal_policy(space)
    kernels = mdp.build_kernels(space)
    cost = mdp.cost_vector(space)
    return SolvedBundle(system, space, kernels, cost, space.reference_index(), vt, pt)


@pytest.fixture(scope="session")
def va_solved(va_system):
    return solve_bundle(va_system)


@pytest.fixture(scope="session")
def va_hetero_solved(va_hetero):
    return solve_bundle(va_hetero)


@dataclass
class SispBundle:
    values: list
    table: object  # unpruned construction
    pruned_table: object
    copied: int
    violations: np.ndarray  # states where threshold persistence fails


def sisp_bundle(bundle: SolvedBundle) -> SispBundle:
    values = decomposed.solve_sisp_values(
        bundle.system, decomposed.default_randomized_probs(bundle.system)
    )
    table = decomposed.build_policy_table(values, bundle.space)
    pruned, copied, violations = decomposed.build_policy_table_with_pruning(values, bundle.space)
    return SispBundle(values, table, pruned, copied, violations)


@pytest.fixture(scope="session")
def va_sisp(va_solved):
    return sisp_bundle(va_solved)


@pytest.fixture(scope="session")
def va_hetero_sisp(va_hetero_solved):
    return sisp_bundle(va_hetero_solved)


def tiny_system():
    """Single sensor, caps (1, 2): 8 states, small enough to enumerate."""
    sensor = a.SensorSpec(a.BernoulliArrival(0.7), a.ExponentialPenalty(0.5), 0.4, 0.9, 1, 2)
    return a.SystemSpec((sensor,), a.ChannelSpec(0.5, 0.8), 1)


@pytest.fixture(scope="session")
def tiny_solved():
    return solve_bundle(tiny_system())
