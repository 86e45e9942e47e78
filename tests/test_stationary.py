"""mdp.stationary_distribution: class detection, mass placement and accuracy."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse import linalg as splinalg

import aoisched as a
from aoisched import cli, mdp, policies as pol
from aoisched.model import ConvergenceError

import stationary_oracle
from conftest import make_va_system, solve_bundle
from test_chains import STUCK_MARKOV, chain_systems
from test_cli import ONE_SENSOR_YAML, write_config
from test_kernel_assembly import PROBS
from test_tables import MARKOV_YAML


def chain(rows):
    return sparse.csr_matrix(np.array(rows, dtype=float))


def residual(p, xi):
    return float(np.abs(p.T @ xi - xi).sum())


def test_two_reachable_closed_classes_raise():
    p = chain([[0.0, 0.5, 0.5], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(RuntimeError, match="2 recurrent classes reachable from state 0"):
        mdp.stationary_distribution(p, 0)


def test_one_state_absorbing_class_gets_unit_mass():
    p = chain([[0.5, 0.5, 0.0], [0.0, 0.2, 0.8], [0.0, 0.0, 1.0]])
    np.testing.assert_array_equal(mdp.stationary_distribution(p, 0), [0.0, 0.0, 1.0])


def test_transient_and_unreachable_states_get_no_mass():
    # 0 is transient and leads into the class {1, 2}; {3, 4} is closed but
    # unreachable from 0, and 5 is transient and unreachable.
    p = chain(
        [
            [0.3, 0.7, 0.0, 0.0, 0.0, 0.0],
            [0.0, 0.25, 0.75, 0.0, 0.0, 0.0],
            [0.0, 0.5, 0.5, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0, 0.0, 0.0],
            [0.5, 0.0, 0.0, 0.5, 0.0, 0.0],
        ]
    )
    xi = mdp.stationary_distribution(p, 0)
    # balance on {1, 2}: 0.75 xi_1 = 0.5 xi_2
    np.testing.assert_allclose(xi, [0.0, 0.4, 0.6, 0.0, 0.0, 0.0], rtol=0, atol=1e-15)


def test_round_robin_augmented_chain_residual(va_solved):
    b = va_solved
    chain = pol.round_robin_chain(b.space, b.factors, b.system.n_sensors, b.system.m_budget)
    xi = mdp.stationary_distribution(chain.p, chain.start)
    assert xi.sum() == pytest.approx(1.0, abs=1e-12)
    assert residual(chain.p, xi) <= 1e-12


def dense_solve(q):
    """xi Q = xi with sum(xi) = 1, the last balance equation replaced by the sum."""
    a = q.T - np.eye(len(q))
    a[-1, :] = 1.0
    rhs = np.zeros(len(q))
    rhs[-1] = 1.0
    return np.linalg.solve(a, rhs)


def test_optimal_chain_matches_dense_solve(va_solved):
    p, _, start = mdp.policy_chain_matrix(va_solved.pt, va_solved.factors, va_solved.start)
    xi = mdp.stationary_distribution(p, start)
    support = np.flatnonzero(xi > 0)
    # the support is closed: no edge leaves it
    assert np.all(np.isin(p[support].indices, support))
    dense = dense_solve(p[np.ix_(support, support)].toarray())
    np.testing.assert_allclose(xi[support], dense, rtol=0, atol=1e-12)


def test_deterministic_three_cycle_gets_uniform_mass():
    # period 3: power iteration would cycle forever on it
    p = chain([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    np.testing.assert_allclose(mdp.stationary_distribution(p, 1), [1 / 3] * 3, rtol=0, atol=1e-15)


def test_sticky_channel_matches_dense_solve(va_penalty):
    # an asymmetric, slowly mixing channel: it stays bad for 2,000 slots and
    # good for 500 on average
    system = make_va_system(va_penalty, 0.9, 0.5, cap=4)
    system = replace(system, channel=a.ChannelSpec(0.9995, 0.998))
    b = solve_bundle(system)
    chains = [
        (mdp.policy_chain_matrix(b.pt, b.factors, b.start), b.cost),
        (pol.round_robin_chain(b.space, b.factors, 2, 1), np.tile(b.cost, 2)),
    ]
    for (p, rep, start), cost in chains:
        # the chains are lumped on their keys: read each key's cost of its
        # next state
        cost = rep @ cost
        xi = mdp.stationary_distribution(p, start)
        support = np.flatnonzero(xi > 0)
        assert np.all(np.isin(p[support].indices, support))
        dense = dense_solve(p[np.ix_(support, support)].toarray())
        np.testing.assert_allclose(xi[support], dense, rtol=0, atol=1e-12)
        assert float(xi @ cost) == pytest.approx(float(dense @ cost[support]), rel=1e-12)
        assert residual(p, xi) <= 1e-12


def wrong_gmres(a, b, **kwargs):
    return np.ones_like(b), 0


def wrong_lu(a, b):
    return np.ones_like(b)


@pytest.fixture
def lu_calls(monkeypatch):
    """Count the sparse LU solves behind the stationary solve."""
    calls = []
    real_spsolve = splinalg.spsolve

    def counted(a, b):
        calls.append(a.shape[0])
        return real_spsolve(a, b)

    monkeypatch.setattr(splinalg, "spsolve", counted)
    return calls


def birth_death(n, up):
    """Reflecting walk on 0..n-1, one step up with probability up, else down."""
    p = np.zeros((n, n))
    for i in range(n):
        p[i, min(i + 1, n - 1)] += up
        p[i, max(i - 1, 0)] += 1.0 - up
    return sparse.csr_matrix(p)


def test_slowly_mixing_chain_falls_back_to_lu(monkeypatch, lu_calls):
    # restarted GMRES stalls far above the bound on this chain (L1 residual
    # about 1e-2); the LU solve must take over and meet detailed balance,
    # xi_{i+1} = 1.5 xi_i. The stalled pass uses up its cycles, so no second
    # GMRES pass runs: each GMRES call records the LU solves before it.
    gmres_calls = []
    real_gmres = splinalg.gmres

    def logged(*args, **kwargs):
        gmres_calls.append(len(lu_calls))
        return real_gmres(*args, **kwargs)

    monkeypatch.setattr(splinalg, "gmres", logged)
    p = birth_death(50, 0.6)
    xi = mdp.stationary_distribution(p, 0)
    assert gmres_calls == [0]
    assert lu_calls == [49]
    exact = 1.5 ** np.arange(50)
    np.testing.assert_allclose(xi, exact / exact.sum(), rtol=0, atol=1e-15)
    assert residual(p, xi) <= 1e-12


def test_class_above_the_lu_bound_raises_without_lu(monkeypatch, lu_calls):
    # the chain above, with the bound below its class: GMRES's stall is
    # reported at once, with no LU solve
    monkeypatch.setattr(mdp, "LU_MAX_STATES", 49)
    with pytest.raises(
        ConvergenceError,
        match=r"L1 residual \d.* on a 50-state closed class, by GMRES; "
        r"sparse LU skipped above 49 states$",
    ):
        mdp.stationary_distribution(birth_death(50, 0.6), 0)
    assert lu_calls == []
    # at the bound, LU still takes over
    monkeypatch.setattr(mdp, "LU_MAX_STATES", 50)
    mdp.stationary_distribution(birth_death(50, 0.6), 0)
    assert lu_calls == [49]


def test_wrong_gmres_answer_falls_back_to_lu(monkeypatch, lu_calls):
    p = chain([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5], [0.6, 0.0, 0.4]])
    monkeypatch.setattr(splinalg, "gmres", wrong_gmres)
    xi = mdp.stationary_distribution(p, 0)
    assert lu_calls == [2]
    np.testing.assert_allclose(xi, dense_solve(p.toarray()), rtol=0, atol=1e-15)


def test_wrong_answer_of_both_solvers_raises(monkeypatch):
    p = chain([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5], [0.6, 0.0, 0.4]])
    monkeypatch.setattr(splinalg, "gmres", wrong_gmres)
    monkeypatch.setattr(splinalg, "spsolve", wrong_lu)
    with pytest.raises(
        ConvergenceError,
        match=r"L1 residual \d.* on a 3-state closed class, by GMRES and by sparse LU",
    ):
        mdp.stationary_distribution(p, 0)


def test_compare_exits_1_on_wrong_solver_answer(tmp_path, monkeypatch, capsys):
    cfg, _ = write_config(tmp_path, ONE_SENSOR_YAML)
    monkeypatch.setattr(splinalg, "gmres", wrong_gmres)
    monkeypatch.setattr(splinalg, "spsolve", wrong_lu)
    assert cli.main(["compare", "--config", str(cfg), "--policies", "maf"]) == 1
    assert "solver error: stationary solve: L1 residual" in capsys.readouterr().err


def closed_classes_reachable(p: np.ndarray, start: int) -> list:
    """Closed classes reachable from start, by dense transitive closure."""
    n = len(p)
    reach = (p > 0) | np.eye(n, dtype=bool)
    for _ in range(n.bit_length()):
        reach = reach | ((reach.astype(int) @ reach.astype(int)) > 0)
    classes = set()
    for i in np.flatnonzero(reach[start]):
        # i is recurrent iff everything it reaches reaches it back
        if np.all(reach[reach[i], i]):
            classes.add(tuple(np.flatnonzero(reach[i])))
    return sorted(classes)


@st.composite
def stochastic_matrices(draw):
    n = draw(st.integers(1, 12))
    weight = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
    w = np.array(draw(st.lists(st.lists(weight, min_size=n, max_size=n), min_size=n, max_size=n)))
    for i in draw(st.sets(st.integers(0, n - 1), max_size=3)):
        w[i] = 0.0
    for i in range(n):
        if w[i].sum() == 0.0:  # absorbing
            w[i, i] = 1.0
    start = draw(st.integers(0, n - 1))
    return w / w.sum(axis=1, keepdims=True), start


@settings(max_examples=300, deadline=None)
@given(stochastic_matrices())
def test_stationary_distribution_properties(case):
    dense, start = case
    p = sparse.csr_matrix(dense)
    classes = closed_classes_reachable(dense, start)
    if len(classes) != 1:
        with pytest.raises(RuntimeError, match=f"{len(classes)} recurrent classes"):
            mdp.stationary_distribution(p, start)
        return
    xi = mdp.stationary_distribution(p, start)
    members = list(classes[0])
    outside = np.setdiff1d(np.arange(len(dense)), members)
    assert np.all(xi >= 0.0)
    assert xi.sum() == pytest.approx(1.0, abs=1e-12)
    assert residual(p, xi) <= 1e-12
    assert np.all(xi[outside] == 0.0)
    assert np.all(xi[members] > 0.0)


def assert_solve_is_the_oracle(p, start):
    """stationary_distribution gives the oracle's xi bytes, or raises the
    oracle's error with the same message."""
    def outcome(solve):
        try:
            return solve(p, start).tobytes()
        except RuntimeError as exc:  # ConvergenceError included
            return type(exc).__name__, str(exc)

    assert outcome(mdp.stationary_distribution) == outcome(
        stationary_oracle.stationary_distribution
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(stochastic_matrices())
def test_stationary_distribution_is_the_oracle_bit_for_bit(case):
    dense, start = case
    assert_solve_is_the_oracle(sparse.csr_matrix(dense), start)


# a stuck channel's class can hold states of zero mass, whose pinned system
# is singular: the LU fallback warns before the solve refuses the answer
@pytest.mark.filterwarnings("ignore::scipy.sparse.linalg.MatrixRankWarning")
@settings(max_examples=40, deadline=None, derandomize=True)
@given(chain_systems(), st.integers(0, 2**32 - 1), st.lists(PROBS, min_size=3, max_size=3))
@example(STUCK_MARKOV, 7, [0.4, 0.0, 0.0])
def test_chain_solves_are_the_oracle_bit_for_bit(spec, seed, p):
    """The table, mixture and round-robin chains of small_systems() solve
    to the oracle's bytes."""
    space = mdp.StateSpace(spec)
    assume(space.n_states <= 2_000)
    n, m = spec.n_sensors, spec.m_budget
    actions = mdp.ActionSet(n, m)
    factors = mdp.build_factors(spec, space)
    start = space.reference_index()
    table = np.random.default_rng(seed).integers(len(actions), size=space.n_states)
    weights = pol.randomized_action_weights(p[:n], m, actions)
    for chain in (
        mdp.policy_chain_matrix(mdp.PolicyTable(table, actions), factors, start),
        mdp.mixture_chain_matrix(weights, factors, actions, start),
        pol.round_robin_chain(space, factors, n, m),
    ):
        assert_solve_is_the_oracle(chain.p, chain.start)


# Exact costs of the eight compare policies, recorded from a direct sparse LU
# solve (scipy spsolve) of the pinned balance equations.
RECORDED_COSTS = {
    "twosensor": {
        "optimal": 9.863300489272607,
        "sisp": 9.92138869950812,
        "maf": 11.03952887355338,
        "mef": 11.03952887355338,
        "rr": 11.110607358734468,
        "rand": 17.409168357838453,
        "myopic": 10.97944924208072,
        "idle": 40.256132350229585,
    },
    "markov": {
        "optimal": 2.6047036365557026,
        "sisp": 2.6047036365557026,
        "maf": 2.7918221964707106,
        "mef": 2.7918221964707106,
        "rr": 2.9056863011812455,
        "rand": 3.089630719006455,
        "myopic": 2.736899126007043,
        "idle": 5.239323145050447,
    },
}


TWOSENSOR = Path(__file__).resolve().parents[1] / "configs" / "twosensor.yaml"


def compare_chains(cfg) -> dict:
    """{policy: (chain, cost)} for the eight policies, as cmd_compare builds
    them: the arguments of chain_average_cost."""
    cache = {}
    system = cfg.system
    space, actions, factors = cli._joint_mdp(cfg, cache)
    cost = mdp.cost_vector(space, system)
    start = space.reference_index()
    out = {}
    for name in pol.POLICY_NAMES:
        policy = cli._build_policy(name, cfg, cache)
        n = system.n_sensors
        if name == "rr":
            chain = pol.round_robin_chain(space, factors, n, system.m_budget)
        elif name == "rand":
            weights = pol.randomized_action_weights(policy.p, system.m_budget, actions)
            chain = mdp.mixture_chain_matrix(weights, factors, actions, start)
        else:
            table = pol.policy_to_table(policy, space, actions)
            chain = mdp.policy_chain_matrix(table, factors, start)
        out[name] = (chain, cost)
    return out


@pytest.fixture(scope="module")
def twosensor_chains():
    return compare_chains(cli.load_config(str(TWOSENSOR)))


@pytest.mark.parametrize("case", ["twosensor", "markov"])
def test_exact_costs_match_recorded(case, tmp_path, twosensor_chains):
    if case == "twosensor":
        chains = twosensor_chains
    else:
        path, _ = write_config(tmp_path, MARKOV_YAML)
        chains = compare_chains(cli.load_config(str(path)))
    for name, recorded in RECORDED_COSTS[case].items():
        cost = mdp.chain_average_cost(*chains[name])
        assert cost == pytest.approx(recorded, rel=1e-12, abs=0), name


def test_correction_pass_reaches_rounding_level(twosensor_chains, lu_calls):
    # these chains spread their mass over 1e-13 .. 1e-2; one GMRES pass
    # leaves residuals up to 1.5e-13, the correction pass about 1e-15, so
    # GMRES alone certifies every one of them
    for name, ((p, _, start), _) in twosensor_chains.items():
        xi = mdp.stationary_distribution(p, start)
        assert residual(p, xi) <= 1e-14, name
    assert lu_calls == []


def flip_last(solve):
    """solve with the sign of its last entry forced negative."""
    def flipped(*args, **kwargs):
        out = solve(*args, **kwargs)
        x = out[0] if isinstance(out, tuple) else out
        x[-1] = -abs(x[-1])
        return out
    return flipped


# state 2 is entered with probability 1e-14 and holds about 5e-15 of the
# mass: flipping its sign keeps the residual far below the bound, so only
# the positivity check can refuse the answer
TINY_MASS = [[0.5, 0.5 - 1e-14, 1e-14], [0.5, 0.5, 0.0], [1.0, 0.0, 0.0]]


def test_negative_mass_is_refused(monkeypatch):
    monkeypatch.setattr(splinalg, "gmres", flip_last(splinalg.gmres))
    monkeypatch.setattr(splinalg, "spsolve", flip_last(splinalg.spsolve))
    with pytest.raises(ConvergenceError, match="smallest mass -"):
        mdp.stationary_distribution(chain(TINY_MASS), 0)


def test_negative_gmres_mass_falls_back_to_lu(monkeypatch, lu_calls):
    monkeypatch.setattr(splinalg, "gmres", flip_last(splinalg.gmres))
    xi = mdp.stationary_distribution(chain(TINY_MASS), 0)
    assert lu_calls == [2]
    assert np.all(xi > 0.0)
