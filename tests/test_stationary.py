"""mdp.stationary_distribution: class detection, mass placement and accuracy."""

import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse import linalg as splinalg
from scipy.sparse.csgraph import breadth_first_order, connected_components

import aoisched as a
from aoisched import cli, mdp, policies as pol
from aoisched.model import ConvergenceError

import stationary_oracle
from conftest import as_scipy, make_va_system, recorded_chains, solve_bundle
from test_chains import STUCK_MARKOV, chain_systems, idle_first
from test_cli import ONE_SENSOR_YAML, write_config
from test_kernel_assembly import PROBS
from test_tables import MARKOV_YAML


def chain(rows):
    return sparse.csr_matrix(np.array(rows, dtype=float))


def residual(p, xi):
    return float(np.abs(p.T @ xi - xi).sum())


def test_two_reachable_closed_classes_raise():
    p = chain([[0.0, 0.5, 0.5], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(RuntimeError, match="2 recurrent classes in the chain"):
        mdp.stationary_distribution(p)


def test_one_state_absorbing_class_gets_unit_mass():
    p = chain([[0.5, 0.5, 0.0], [0.0, 0.2, 0.8], [0.0, 0.0, 1.0]])
    np.testing.assert_array_equal(mdp.stationary_distribution(p), [0.0, 0.0, 1.0])


TRANSIENT = [
    [0.3, 0.7, 0.0, 0.0, 0.0, 0.0],
    [0.0, 0.25, 0.75, 0.0, 0.0, 0.0],
    [0.0, 0.5, 0.5, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.0, 1.0, 0.0],
    [0.0, 0.0, 0.0, 1.0, 0.0, 0.0],
    [0.5, 0.0, 0.0, 0.5, 0.0, 0.0],
]


def test_transient_and_unreachable_states_get_no_mass():
    # 0 is transient and leads into the class {1, 2}; 3 and 4 cycle but
    # leak into it, and 5, which no state enters, leads to 0 and 3. So
    # {1, 2} is the one closed class, and the other states are transient.
    leaky = [row[:] for row in TRANSIENT]
    leaky[4] = [0.0, 0.5, 0.0, 0.5, 0.0, 0.0]
    xi = mdp.stationary_distribution(chain(leaky))
    # balance on {1, 2}: 0.75 xi_1 = 0.5 xi_2
    np.testing.assert_allclose(xi, [0.0, 0.4, 0.6, 0.0, 0.0, 0.0], rtol=0, atol=1e-15)
    # with 4 -> 3 only, {3, 4} is closed too: a second closed class,
    # unreachable from 0, still counts
    with pytest.raises(RuntimeError, match="2 recurrent classes"):
        mdp.stationary_distribution(chain(TRANSIENT))


def test_round_robin_augmented_chain_residual(va_solved):
    b = va_solved
    chain = pol.round_robin_chain(b.space)
    xi = mdp.stationary_distribution(chain.p)
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
    p, _ = mdp.policy_chain_matrix(va_solved.pt, va_solved.space)
    xi = mdp.stationary_distribution(p)
    p = as_scipy(p)
    support = np.flatnonzero(xi > 0)
    # the support is closed: no edge leaves it
    assert np.all(np.isin(p[support].indices, support))
    dense = dense_solve(p[np.ix_(support, support)].toarray())
    np.testing.assert_allclose(xi[support], dense, rtol=0, atol=1e-12)


def test_negligible_first_state_is_not_pinned():
    # 0 and 1 are entered with probability 5.6e-309 only, so their mass is
    # about 2.8e-309: with state 0 pinned, the system is singular to
    # rounding (GMRES stops at zero, LU gives NaN). With state 2 pinned,
    # which the most probability flows into, it solves.
    e = 5.562684646268003e-309
    p = chain([[0.0, 0.0, 0.5, 0.5], [e, e, 0.5, 0.5], [0.0, 0.0, 0.5, 0.5], [e, e, 0.5, 0.5]])
    with pytest.warns(splinalg.MatrixRankWarning):
        xi = mdp.stationary_distribution(p)
    assert np.all(xi > 0.0)
    np.testing.assert_allclose(xi, [e / 2, e / 2, 0.5, 0.5], rtol=1e-12, atol=0)
    assert residual(p, xi) <= 1e-12


def test_weakly_coupled_masses_rest_on_the_off_diagonal_entries(monkeypatch):
    # two states left with probabilities a and b: the masses are
    # (b, a) / (a + b). 1 - (1 - b) is b only to about 4e-8 of itself, so
    # an outflow of 1 - q_ii would move them by that much
    a, b = 1e-9, 3e-9
    p = chain([[1 - a, a], [b, 1 - b]])
    want = np.array([b, a]) / (a + b)
    eps = np.finfo(float).eps
    # the class is nearly decomposable, so GTH solves it
    np.testing.assert_allclose(mdp.stationary_distribution(p), want, rtol=4 * eps, atol=0)
    # and so does the pinned solve, on outflows that are sums of steps
    monkeypatch.setattr(mdp, "GTH_MAX_STATES", 1)
    np.testing.assert_allclose(mdp.stationary_distribution(p), want, rtol=4 * eps, atol=0)


def test_explicit_zeros_are_no_steps():
    # 2 is absorbing, and its explicit zeros to 0 and 3 make all four
    # states one class of stored entries. Pinned at 0, or again at 0, which
    # the most probability flows into, that class's balance system is
    # singular.
    rows, cols = [0, 1, 1, 2, 2, 2, 3], [1, 0, 2, 0, 2, 3, 0]
    data = [1.0, 0.9, 0.1, 0.0, 1.0, 0.0, 1.0]
    p = sparse.csr_matrix((data, (rows, cols)), shape=(4, 4))
    members, count = mdp._closed_class(p)
    assert count == 1 and len(members) == 4
    np.testing.assert_array_equal(mdp.stationary_distribution(p), [0.0, 0.0, 1.0, 0.0])
    # two absorbing states that explicit zeros join are two classes
    p = sparse.csr_matrix(([1.0, 0.0, 0.0, 1.0], ([0, 0, 1, 1], [0, 1, 0, 1])), shape=(2, 2))
    with pytest.raises(RuntimeError, match="2 recurrent classes in the chain"):
        mdp.stationary_distribution(p)


def test_deterministic_three_cycle_gets_uniform_mass():
    # period 3: power iteration would cycle forever on it
    p = chain([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    np.testing.assert_allclose(mdp.stationary_distribution(p), [1 / 3] * 3, rtol=0, atol=1e-15)


def test_sticky_channel_matches_dense_solve(va_penalty):
    # an asymmetric, slowly mixing channel: it stays bad for 2,000 slots and
    # good for 500 on average
    system = make_va_system(va_penalty, 0.9, 0.5, cap=4)
    system = replace(system, channel=a.ChannelSpec(0.9995, 0.998))
    b = solve_bundle(system)
    chains = [
        (mdp.policy_chain_matrix(b.pt, b.space), b.cost),
        (pol.round_robin_chain(b.space), np.tile(b.cost, 2)),
    ]
    for (p, rep), cost in chains:
        # the chains are lumped on their keys: read each key's cost of its
        # next state
        cost = rep @ cost
        xi = mdp.stationary_distribution(p)
        p = as_scipy(p)
        support = np.flatnonzero(xi > 0)
        assert np.all(np.isin(p[support].indices, support))
        dense = dense_solve(p[np.ix_(support, support)].toarray())
        np.testing.assert_allclose(xi[support], dense, rtol=0, atol=1e-12)
        assert float(xi @ cost) == pytest.approx(float(dense @ cost[support]), rel=1e-12)
        assert residual(p, xi) <= 1e-12


def wrong_gmres(matvec, b, rtol):
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
    real_gmres = mdp._gmres

    def logged(*args):
        gmres_calls.append(len(lu_calls))
        return real_gmres(*args)

    monkeypatch.setattr(mdp, "_gmres", logged)
    p = birth_death(50, 0.6)
    xi = mdp.stationary_distribution(p)
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
        mdp.stationary_distribution(birth_death(50, 0.6))
    assert lu_calls == []
    # at the bound, LU still takes over
    monkeypatch.setattr(mdp, "LU_MAX_STATES", 50)
    mdp.stationary_distribution(birth_death(50, 0.6))
    assert lu_calls == [49]


def cycle(n):
    """The deterministic n-cycle: its one class has uniform mass."""
    return sparse.csr_matrix((np.ones(n), np.roll(np.arange(n), -1), np.arange(n + 1)))


def test_lu_bound_is_8000_states(monkeypatch, lu_calls):
    # with GMRES's answer wrong, a class of LU_MAX_STATES = 8,000 states is
    # solved by LU, and one state more raises at once with no LU solve
    monkeypatch.setattr(mdp, "_gmres", wrong_gmres)
    np.testing.assert_allclose(mdp.stationary_distribution(cycle(8_000)), 1 / 8_000, rtol=1e-12)
    assert lu_calls == [7_999]
    with pytest.raises(
        ConvergenceError,
        match=r"on a 8001-state closed class, by GMRES; sparse LU skipped above 8000 states$",
    ):
        mdp.stationary_distribution(cycle(8_001))
    assert lu_calls == [7_999]


def test_wrong_gmres_answer_falls_back_to_lu(monkeypatch, lu_calls):
    p = chain([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5], [0.6, 0.0, 0.4]])
    monkeypatch.setattr(mdp, "_gmres", wrong_gmres)
    xi = mdp.stationary_distribution(p)
    assert lu_calls == [2]
    np.testing.assert_allclose(xi, dense_solve(p.toarray()), rtol=0, atol=1e-15)


def test_wrong_answer_of_both_solvers_raises(monkeypatch):
    p = chain([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5], [0.6, 0.0, 0.4]])
    monkeypatch.setattr(mdp, "_gmres", wrong_gmres)
    monkeypatch.setattr(splinalg, "spsolve", wrong_lu)
    with pytest.raises(
        ConvergenceError,
        match=r"L1 residual \d.* on a 3-state closed class, by GMRES and by sparse LU",
    ):
        mdp.stationary_distribution(p)


def test_compare_exits_1_on_wrong_solver_answer(tmp_path, monkeypatch, capsys):
    cfg, _ = write_config(tmp_path, ONE_SENSOR_YAML)
    monkeypatch.setattr(mdp, "_gmres", wrong_gmres)
    monkeypatch.setattr(splinalg, "spsolve", wrong_lu)
    assert cli.main(["compare", "--config", str(cfg), "--policies", "maf"]) == 1
    assert "solver error: stationary solve: L1 residual" in capsys.readouterr().err


def csgraph_closed_classes(p) -> tuple:
    """(how many, labels, is_closed) of csgraph's strongly connected
    components of p: each state's component, and whether no stored entry
    leaves each component."""
    n_comp, labels = connected_components(p, directed=True, connection="strong")
    edges = p.tocoo()
    is_closed = np.ones(n_comp, dtype=bool)
    is_closed[labels[edges.row[labels[edges.row] != labels[edges.col]]]] = False
    return int(is_closed.sum()), labels, is_closed


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_closed_class_search_counts_as_csgraph(data):
    """_closed_class counts the closed classes of a chain as csgraph's
    strongly connected components do, explicit zeros counting as entries,
    and its states are one of them."""
    dense, _ = data.draw(stochastic_matrices())
    if data.draw(st.booleans()):
        p = sparse.csr_matrix(dense)
    else:
        # every entry stored, zeros included
        rows, cols = np.indices(dense.shape).reshape(2, -1)
        p = sparse.csr_matrix((dense.ravel(), (rows, cols)), shape=dense.shape)
    members, count = mdp._closed_class(p)
    want, labels, is_closed = csgraph_closed_classes(p)
    assert count == want
    assert len(np.unique(labels[members])) == 1 and is_closed[labels[members[0]]]
    assert np.array_equal(members, np.flatnonzero(labels == labels[members[0]]))


def pinned_system(p):
    """The pinned balance system of p's closed class, as
    stationary_distribution builds it: (x -> A[1:, 1:] x, b)."""
    members, _ = mdp._closed_class(p)
    q = mdp._restricted(p, members)
    a = mdp._operator(*mdp._generator(q))

    def product(x):
        return (a @ np.concatenate(([0.0], x)))[1:]

    return product, as_scipy(q)[0, 1:].toarray().ravel()


def test_gmres_agrees_with_scipy(twosensor_chains):
    """mdp._gmres, the numpy port of scipy's restarted GMRES, gives scipy's
    convergence flag and, when both converge, answers within 1e-12 of
    each other relative to the largest entry (at most 2e-14 measured), on
    the pinned systems of the twosensor compare chains and of a slowly
    mixing chain that stalls both."""
    from scipy.sparse.linalg import LinearOperator, gmres

    systems = [p for (p, _), _ in twosensor_chains.values()] + [birth_death(50, 0.6)]
    for p in systems:
        product, b = pinned_system(p)

        def matvec(x, out):
            out[...] = product(x)

        got, got_info = mdp._gmres(matvec, b, mdp.GMRES_RTOL)
        op = LinearOperator((len(b), len(b)), matvec=product, dtype=np.float64)
        want, want_info = gmres(
            op, b, rtol=mdp.GMRES_RTOL, atol=0.0,
            restart=mdp.GMRES_RESTART, maxiter=mdp.GMRES_CYCLES,
        )
        assert (got_info == 0) == (want_info == 0)
        if want_info == 0:
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert got_info != 0  # the birth-death chain stalls both


EXACT_MAF = textwrap.dedent(
    """
    import sys
    from types import SimpleNamespace
    from aoisched import cli, mdp
    cfg = cli.load_config(sys.argv[1])
    cache = {}
    (policy,) = cli._policy_list(SimpleNamespace(policies="maf"), cfg, cache)
    space = cli._joint_mdp(cfg, cache)
    chain = cli._policy_chain(policy, space)
    print(mdp.chain_average_cost(chain, mdp.cost_vector(space)).hex())
    """
)


def test_exact_cost_bits_do_not_depend_on_the_blas_thread_count():
    """maf's exact cost on threesensor (a 45,142-state chain, large enough
    for OpenBLAS to thread its dot products) has the same bits with one
    BLAS thread and with two."""
    config = Path(__file__).resolve().parents[1] / "configs" / "threesensor.yaml"
    src = str(Path(mdp.__file__).resolve().parents[1])
    bits = set()
    for threads in ("1", "2"):
        env = dict(
            os.environ, OPENBLAS_NUM_THREADS=threads,
            PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
        )
        done = subprocess.run(
            [sys.executable, "-c", EXACT_MAF, str(config)],
            env=env, capture_output=True, text=True, check=True,
        )
        bits.add(done.stdout.strip())
    assert len(bits) == 1, bits


def closed_classes(p: np.ndarray) -> list:
    """Every closed class of p, by dense transitive closure."""
    n = len(p)
    reach = (p > 0) | np.eye(n, dtype=bool)
    for _ in range(n.bit_length()):
        reach = reach | ((reach.astype(int) @ reach.astype(int)) > 0)
    classes = set()
    for i in range(n):
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
    dense, _ = case
    p = sparse.csr_matrix(dense)
    classes = closed_classes(dense)
    if len(classes) != 1:
        with pytest.raises(RuntimeError, match=f"{len(classes)} recurrent classes"):
            mdp.stationary_distribution(p)
        return
    xi = mdp.stationary_distribution(p)
    members = list(classes[0])
    outside = np.setdiff1d(np.arange(len(dense)), members)
    assert np.all(xi >= 0.0)
    assert xi.sum() == pytest.approx(1.0, abs=1e-12)
    assert residual(p, xi) <= 1e-12
    assert np.all(xi[outside] == 0.0)
    assert np.all(xi[members] > 0.0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(stochastic_matrices())
def test_gth_matches_dense_solve(case):
    """mdp._gth, the elimination that weakly coupled classes take, gives
    the dense LU answer on the one closed class of a drawn chain."""
    dense, _ = case
    classes = closed_classes(dense)
    assume(len(classes) == 1 and len(classes[0]) > 1)
    q = dense[np.ix_(classes[0], classes[0])]
    np.testing.assert_allclose(mdp._gth(sparse.csr_matrix(q)), dense_solve(q), rtol=0, atol=1e-13)


def assert_solve_is_the_oracle(p, start):
    """stationary_distribution of p restricted to the states start reaches
    gives the oracle's xi bytes from start, the others getting no mass; or
    it raises the oracle's error, with the same message, or for several
    closed classes the same count (the oracle's message names the start)."""
    reach = np.sort(breadth_first_order(p, start, return_predecessors=False))

    def restricted():
        xi = np.zeros(p.shape[0])
        xi[reach] = mdp.stationary_distribution(mdp._restricted(p, reach))
        return xi

    def outcome(solve):
        try:
            return solve().tobytes()
        except RuntimeError as exc:  # ConvergenceError included
            return type(exc).__name__, str(exc).split(" recurrent classes")[0]

    assert outcome(restricted) == outcome(
        lambda: stationary_oracle.stationary_distribution(p, start)
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(stochastic_matrices())
def test_stationary_distribution_is_the_oracle_bit_for_bit(case):
    dense, start = case
    assert_solve_is_the_oracle(sparse.csr_matrix(dense), start)


# a stuck channel's class can hold states of zero mass, whose pinned system
# can be singular: the LU fallback warns before those masses are set to zero
@pytest.mark.filterwarnings("ignore::scipy.sparse.linalg.MatrixRankWarning")
@settings(max_examples=40, deadline=None, derandomize=True)
@given(chain_systems(), st.integers(0, 2**32 - 1), st.lists(PROBS, min_size=3, max_size=3))
@example(STUCK_MARKOV, 7, [0.4, 0.0, 0.0])
@example(idle_first(3), 0, [6.654679670403322e-276, 0.0, 0.0])
def test_chain_solves_are_the_oracle_bit_for_bit(spec, seed, p):
    """The table, mixture and round-robin chains of small_systems() solve
    to the oracle's bytes."""
    space = mdp.StateSpace(spec)
    assume(space.n_states <= 2_000)
    n, m = spec.n_sensors, spec.m_budget
    actions = mdp.ActionSet(n, m)
    table = np.random.default_rng(seed).integers(len(actions), size=space.n_states)
    weights = pol.randomized_action_weights(p[:n], m, actions)
    with recorded_chains() as built:
        mdp.policy_chain_matrix(mdp.PolicyTable(table, actions), space)
        mdp.mixture_chain_matrix(weights, space, actions)
        pol.round_robin_chain(space)
    for chain, start_key, n_keys, _ in built:
        # the chain is the keys its start's key reaches, so the oracle's
        # search from that key keeps every key
        p = as_scipy(chain.p)
        reached = breadth_first_order(p, start_key, return_predecessors=False)
        assert len(reached) == p.shape[0] == n_keys
        assert_solve_is_the_oracle(p, start_key)


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
    space = cli._joint_mdp(cfg, cache)
    cost = mdp.cost_vector(space)
    return {
        name: (cli._policy_chain(cli._build_policy(name, cfg, cache), space), cost)
        for name in pol.POLICY_NAMES
    }


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
    for name, ((p, _), _) in twosensor_chains.items():
        xi = mdp.stationary_distribution(p)
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
    monkeypatch.setattr(mdp, "_gmres", flip_last(mdp._gmres))
    monkeypatch.setattr(splinalg, "spsolve", flip_last(splinalg.spsolve))
    with pytest.raises(ConvergenceError, match="smallest mass -"):
        mdp.stationary_distribution(chain(TINY_MASS))


def test_negative_gmres_mass_falls_back_to_lu(monkeypatch, lu_calls):
    monkeypatch.setattr(mdp, "_gmres", flip_last(mdp._gmres))
    xi = mdp.stationary_distribution(chain(TINY_MASS))
    assert lu_calls == [2]
    assert np.all(xi > 0.0)


# states 0 and 2 are entered from state 5 only, with probability 2e-289:
# their masses, about 5e-290, are far below rounding next to the others',
# and GMRES and sparse LU both give state 0 a mass of -3.0e-17
SUB_ROUNDING = [
    [0.0, 0.0, 0.0, 0.875, 0.0, 0.125],
    [0.0, 0.0, 0.0, 0.5, 0.0, 0.5],
    [0.0, 0.4375, 0.0, 0.4375, 0.0625, 0.0625],
    [0.0, 0.25, 0.0, 0.25, 0.25, 0.25],
    [0.0, 0.0, 0.0, 0.875, 0.0, 0.125],
    [2.019087730052067e-289, 0.4375, 2.019087730052067e-289, 0.4375, 0.0625, 0.0625],
]


def test_masses_within_rounding_of_zero_are_zero():
    p = chain(SUB_ROUNDING)
    xi = mdp.stationary_distribution(p)
    assert residual(p, xi) <= mdp.STATIONARY_RESIDUAL
    assert np.all(xi >= 0.0)
    np.testing.assert_allclose(xi, np.array([0, 7, 0, 14, 4, 8]) / 33, rtol=0, atol=1e-15)


def test_state_entered_by_an_explicit_zero_only_gets_zero_mass():
    # the stored zero 0 -> 2 is an edge to csgraph, so state 2 is in the
    # closed class {0, 1, 2}, but no probability enters it
    p = sparse.csr_matrix(([1.0, 0.0, 1.0, 1.0], [1, 2, 0, 0], [0, 2, 3, 4]), shape=(3, 3))
    np.testing.assert_array_equal(mdp.stationary_distribution(p), [0.5, 0.5, 0.0])
