"""Differentiable weighted eight-point essential-matrix solver.

The solver builds the weighted 9x9 Gram matrix of per-correspondence
monomials and recovers Vec(E) as the eigenvector of the smallest
eigenvalue, taken from LAPACK's symmetric eigensolver (`eigh`). The
smallest-eigenvector derivative gives an analytic backward pass with
respect to the weights.
"""

from dataclasses import dataclass

import numpy as np

from .epipolar import as_correspondences

EIGENGAP_REL_MIN = 1e-12
SUPPORT_WEIGHT_MIN = 1e-8
SYMMETRY_ATOL = 1e-10


class NotSymmetric(ValueError):
    """Input to the symmetric eigensolver is not symmetric."""


class InsufficientSupport(ValueError):
    """Fewer than eight correspondences carry usable weight."""


class EigengapCollapse(ArithmeticError):
    """Two smallest eigenvalues coincide; the solution is not unique."""


def build_monomial_matrix(C):
    """N x 9 matrix with rows [x1x2, x1y2, x1, y1x2, y1y2, y1, x2, y2, 1]."""
    C = as_correspondences(C)
    x1, y1, x2, y2 = C[:, 0], C[:, 1], C[:, 2], C[:, 3]
    one = np.ones(len(C))
    return np.column_stack([x1 * x2, x1 * y2, x1, y1 * x2, y1 * y2, y1, x2, y2, one])


def weighted_gram(X, w):
    """G = X^T diag(w) X, the weighted sum of monomial outer products."""
    X = np.asarray(X, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64).reshape(-1)
    if len(w) != X.shape[0]:
        raise ValueError(f"weight length {len(w)} != row count {X.shape[0]}")
    if np.any(w < 0):
        raise ValueError("weights must be non-negative (Gram matrix must stay PSD)")
    G = (X * w[:, None]).T @ X
    return 0.5 * (G + G.T)  # kill rounding asymmetry


def _symmetrized(G, stacked):
    """Check that G (or every matrix of a stack) is symmetric; return 0.5 * (G + G^T)."""
    G = np.asarray(G, dtype=np.float64)
    if stacked:
        if G.ndim != 3 or G.shape[1] != G.shape[2]:
            raise NotSymmetric(f"expected a (K, n, n) stack, got {G.shape}")
    elif G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got {G.shape}")
    Gt = np.swapaxes(G, -1, -2)
    scale = np.maximum(1.0, np.abs(G).max(axis=(-2, -1)))
    if np.any(np.abs(G - Gt).max(axis=(-2, -1)) > SYMMETRY_ATOL * scale):
        raise NotSymmetric("a matrix in the stack differs from its transpose beyond 1e-10"
                           if stacked else "input differs from its transpose beyond 1e-10")
    return 0.5 * (G + Gt)


def symmetric_eig9(G):
    """Eigendecomposition of a symmetric matrix by LAPACK (`eigh`).

    Returns eigenvalues in ascending order and the matching orthonormal
    eigenvectors as columns. Sized for the 9x9 Gram matrix but works for
    any square symmetric input.
    """
    return np.linalg.eigh(_symmetrized(G, stacked=False))


def symmetric_eig9_batched(G):
    """symmetric_eig9 for a (K, n, n) stack, in one LAPACK `eigh` call.

    Used to evaluate many minimal-sample hypotheses in parallel.
    """
    return np.linalg.eigh(_symmetrized(G, stacked=True))


@dataclass
class EightPointContext:
    """Forward-pass cache reused by the analytic backward pass."""

    X: np.ndarray          # (N, 9) monomials
    eigenvalues: np.ndarray  # (9,) ascending
    eigenvectors: np.ndarray  # (9, 9) columns
    vec_e: np.ndarray      # (9,) sign-fixed smallest eigenvector
    essential: np.ndarray  # (3, 3)
    eigengap: float


def _solve(C, w):
    C = as_correspondences(C, min_rows=8)
    w = np.asarray(w, dtype=np.float64).reshape(-1)
    if len(w) != len(C):
        raise ValueError(f"weight length {len(w)} != correspondence count {len(C)}")
    if not (np.isfinite(C).all() and np.isfinite(w).all()):
        raise ValueError("correspondences and weights must be finite")
    if np.count_nonzero(w > SUPPORT_WEIGHT_MIN) < 8:
        raise InsufficientSupport("fewer than 8 correspondences with weight above 1e-8")
    X = build_monomial_matrix(C)
    G = weighted_gram(X, w)
    lam, V = symmetric_eig9(G)
    gap = float(lam[1] - lam[0])
    if gap < EIGENGAP_REL_MIN * np.linalg.norm(G):
        raise EigengapCollapse(f"eigengap {gap:.3e} below 1e-12 * ||G||")
    v = V[:, 0]
    k = int(np.argmax(np.abs(v)))
    if v[k] < 0:
        v = -v
    v = v / np.linalg.norm(v)
    # column-major reshape: with the monomial ordering above this is the
    # unique choice for which p2^T E p1 vanishes on the support
    return EightPointContext(X, lam, V, v, v.reshape(3, 3, order="F"), gap)


def weighted_eightpoint(C, w):
    """Essential matrix (unit Frobenius norm) from weighted correspondences."""
    return _solve(C, w).essential


def weighted_eightpoint_with_context(C, w):
    """Solver variant that also returns the cache needed for the backward pass."""
    ctx = _solve(C, w)
    return ctx.essential, ctx


def backward_from_context(ctx: EightPointContext, upstream_grad_on_E):
    """Gradient of sum(upstream * E(w)) with respect to the weights.

    Uses the smallest-eigenvector derivative dv = (lam1*I - G)^+ dG v with
    dG/dw_i = x_i x_i^T, evaluated through the cached eigendecomposition.
    """
    g = np.asarray(upstream_grad_on_E, dtype=np.float64).reshape(3, 3).flatten(order="F")
    lam, V, v = ctx.eigenvalues, ctx.eigenvectors, ctx.vec_e
    # pseudo-inverse of (lam1*I - G) restricted to the non-null eigenspaces
    rest = V[:, 1:]
    inv = 1.0 / (lam[0] - lam[1:])
    u = rest @ (inv * (rest.T @ g))
    return (ctx.X @ u) * (ctx.X @ v)


def weighted_eightpoint_backward(C, w, upstream_grad_on_E):
    """Standalone backward pass; re-runs the forward solve to build its cache."""
    ctx = _solve(C, w)
    return backward_from_context(ctx, upstream_grad_on_E)
