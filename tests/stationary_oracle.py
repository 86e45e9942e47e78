"""The stationary solve as it was before GMRES ran on an operator over
(I - Q)^T: GMRES and sparse LU on a copy of the pinned block a[1:, 1:], and
the closed-class test on the COO edges of the reachable chain. Kept as the
oracle that mdp.stationary_distribution must match bit for bit."""

import numpy as np

from aoisched import mdp
from aoisched.model import ConvergenceError


def _gmres_solve(a11, b):
    from scipy.sparse.linalg import gmres

    x = np.zeros(len(b))
    for _ in range(mdp.GMRES_PASSES):
        dx, info = gmres(
            a11, b - a11 @ x, rtol=mdp.GMRES_RTOL, atol=0.0,
            restart=mdp.GMRES_RESTART, maxiter=mdp.GMRES_CYCLES,
        )
        x += dx
        if info != 0:
            break
    return x


def _lu_solve(a11, b):
    from scipy.sparse.linalg import spsolve

    return spsolve(a11.tocsc(), b)


def stationary_distribution(p, start_index):
    from scipy import sparse
    from scipy.sparse.csgraph import breadth_first_order, connected_components

    n = p.shape[0]
    reach = np.sort(breadth_first_order(p, start_index, return_predecessors=False))
    sub = mdp._restricted(p, reach)
    n_comp, labels = connected_components(sub, directed=True, connection="strong")
    edges = sub.tocoo()
    leaving = labels[edges.row] != labels[edges.col]
    is_closed = np.ones(n_comp, dtype=bool)
    is_closed[labels[edges.row[leaving]]] = False
    del edges, leaving
    closed = np.flatnonzero(is_closed)
    if len(closed) != 1:
        raise RuntimeError(
            f"{len(closed)} recurrent classes reachable from state {start_index}"
        )
    members = np.flatnonzero(labels == closed[0])
    m = len(members)
    xi = np.ones(1)
    if m > 1:
        q = mdp._restricted(sub, members)
        a = (sparse.identity(m, format="csr") - q).T.tocsr()
        a11 = a[1:, 1:]
        b = -a[1:, 0].toarray().ravel()
        del a
        for solve in (_gmres_solve, _lu_solve):
            xi = np.concatenate(([1.0], solve(a11, b)))
            xi /= xi.sum()
            residual = float(np.abs(q.T @ xi - xi).sum())
            if residual <= mdp.STATIONARY_RESIDUAL and np.all(xi > 0.0):
                break
        else:
            raise ConvergenceError(
                f"stationary solve: L1 residual {residual:.3e} (bound "
                f"{mdp.STATIONARY_RESIDUAL:g}), smallest mass {xi.min():.3e}, "
                f"on a {m}-state closed class, by GMRES and by sparse LU"
            )
    xi_full = np.zeros(n)
    xi_full[reach[members]] = xi
    return xi_full
