"""The stationary solve with its own operator and class search: GMRES and
sparse LU on a copy of the pinned block A[1:, 1:] of A = (D - Off)^T (Off
the off-diagonal part of Q, D its row sums), where
mdp.stationary_distribution runs GMRES on an operator over all of A, and the
closed classes from csgraph's strongly connected components of the positive
entries, tested on the COO edges of the chain that a breadth-first search
from the start reaches, where mdp searches by frontiers itself; the same
components of the class's entries of at least mdp.WEAK_COUPLING tell a
nearly decomposable class. It shares only the GMRES iteration (mdp._gmres)
and its passes on a longdouble balance residual, the GTH elimination
(mdp._gth), the re-pin of a first state of too little mass and the zeroing
of masses within rounding of zero. Kept as the oracle that
mdp.stationary_distribution must match bit for bit, on the states reachable
from a start."""

import numpy as np

from aoisched import mdp
from aoisched.model import ConvergenceError


def _generator(q, dtype):
    """(Off, out) in dtype: the off-diagonal part of q and its row sums, each
    state's outflow as the sum of its steps to other states, not 1 - q_ii
    (the GTH balance)."""
    from scipy import sparse

    q = q.astype(dtype)
    off = (q - sparse.diags(q.diagonal())).tocsr()
    return off, off @ np.ones(q.shape[0], dtype=dtype)


def _gmres_solve(q, a11, b):
    def matvec(x, y):
        y[...] = a11 @ x

    wide, wide_out = _generator(q, np.longdouble)
    xi = np.ones(q.shape[0], dtype=np.longdouble)
    x = np.zeros(len(b))
    r = b
    for k in range(mdp.GMRES_PASSES):
        if k:
            xi[1:] = x
            r = (wide.T @ xi - wide_out * xi)[1:].astype(float)
        dx, info = mdp._gmres(matvec, r, mdp.GMRES_RTOL if k == 0 else mdp.GMRES_CORRECTION_RTOL)
        x += dx
        if info != 0:
            break
    return x


def _lu_solve(q, a11, b):
    from scipy.sparse.linalg import spsolve

    return spsolve(a11.tocsc(), b)


def _pinned_solve(q):
    """(xi, L1 residual) with q's first state pinned: GMRES's answer if it
    is certified, else sparse LU's."""
    from scipy import sparse

    off, out = _generator(q, float)
    a11 = (sparse.diags(out) - off).T.tocsr()[1:, 1:]
    b = q[0, 1:].toarray().ravel()
    for solve in (_gmres_solve, _lu_solve):
        xi = np.concatenate(([1.0], solve(q, a11, b)))
        xi /= xi.sum()
        residual = float(np.abs(q.T @ xi - xi).sum())
        if residual <= mdp.STATIONARY_RESIDUAL and np.all(xi > 0.0):
            break
    return xi, residual


def _closed_classes(p):
    """The states of each strongly connected component of p that no stored
    entry leaves."""
    from scipy.sparse.csgraph import connected_components

    n_comp, labels = connected_components(p, directed=True, connection="strong")
    edges = p.tocoo()
    leaving = labels[edges.row] != labels[edges.col]
    is_closed = np.ones(n_comp, dtype=bool)
    is_closed[labels[edges.row[leaving]]] = False
    return [np.flatnonzero(labels == c) for c in np.flatnonzero(is_closed)]


def stationary_distribution(p, start_index):
    from scipy.sparse.csgraph import breadth_first_order

    n = p.shape[0]
    reach = np.sort(breadth_first_order(p, start_index, return_predecessors=False))
    sub = p[np.ix_(reach, reach)].tocsr()
    sub.eliminate_zeros()  # an explicit zero is no step
    closed = _closed_classes(sub)
    if len(closed) != 1:
        raise RuntimeError(
            f"{len(closed)} recurrent classes reachable from state {start_index}"
        )
    members = closed[0]
    m = len(members)
    xi = np.ones(1)
    if m > 1:
        q = sub[np.ix_(members, members)].tocsr()
        residual = np.nan
        strong = q.copy()
        strong.data[strong.data < mdp.WEAK_COUPLING] = 0.0
        strong.eliminate_zeros()
        if m <= mdp.GTH_MAX_STATES and len(_closed_classes(strong)) > 1:
            with np.errstate(divide="ignore", invalid="ignore"):
                xi = mdp._gth(q)
            residual = float(np.abs(q.T @ xi - xi).sum())
        if not np.isfinite(residual):
            xi, residual = _pinned_solve(q)
            finite = np.isfinite(residual)
            if not (finite and xi[0] >= mdp.PIN_MASS * xi.max()):
                # too little mass to pin: re-pin at the largest mass, or
                # where most probability flows when no mass is finite, at
                # up to mdp.PIN_TRIES states in turn
                heavy = xi if finite else np.asarray(q.sum(axis=0)).ravel()
                for k in np.argsort(-heavy, kind="stable")[: mdp.PIN_TRIES]:
                    if not k:
                        continue
                    order = np.roll(np.arange(m), -k)
                    moved, moved_residual = _pinned_solve(
                        q[order][:, order].tocsr().sorted_indices()
                    )
                    if np.isfinite(moved_residual):
                        xi[order], residual = moved, moved_residual
                        break
        if not (residual <= mdp.STATIONARY_RESIDUAL and np.all(xi > 0.0)):
            if xi.min() >= -np.finfo(float).eps:
                xi = np.maximum(xi, 0.0)
                residual = float(np.abs(q.T @ xi - xi).sum())
        if not (residual <= mdp.STATIONARY_RESIDUAL and np.all(xi >= 0.0)):
            raise ConvergenceError(
                f"stationary solve: L1 residual {residual:.3e} (bound "
                f"{mdp.STATIONARY_RESIDUAL:g}), smallest mass {xi.min():.3e}, "
                f"on a {m}-state closed class, by GMRES and by sparse LU"
            )
    xi_full = np.zeros(n)
    xi_full[reach[members]] = xi
    return xi_full
