"""mdp.stationary_distribution: class detection, mass placement and accuracy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from aoisched import mdp, policies as pol


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
    p_aug, _, start = pol.round_robin_chain(
        b.space, b.kernels, b.cost, b.system.n_sensors, b.system.m_budget
    )
    xi = mdp.stationary_distribution(p_aug, start)
    assert xi.sum() == pytest.approx(1.0, abs=1e-12)
    assert residual(p_aug, xi) <= 1e-12


def test_optimal_chain_matches_dense_solve(va_solved):
    p = mdp.policy_chain_matrix(va_solved.pt, va_solved.kernels)
    xi = mdp.stationary_distribution(p, va_solved.start)
    support = np.flatnonzero(xi > 0)
    # the support is closed: no edge leaves it
    assert np.all(np.isin(p[support].indices, support))
    q = p[np.ix_(support, support)].toarray()
    # xi Q = xi with sum(xi) = 1, the last balance equation replaced by the sum
    a = q.T - np.eye(len(support))
    a[-1, :] = 1.0
    rhs = np.zeros(len(support))
    rhs[-1] = 1.0
    dense = np.linalg.solve(a, rhs)
    np.testing.assert_allclose(xi[support], dense, rtol=0, atol=1e-12)


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
