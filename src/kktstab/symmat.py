"""Symmetric-matrix vectorization and eigenvalue splitting.

Symmetric matrices are stored in svec coordinates: the upper triangle read
row by row, with off-diagonal entries scaled by sqrt(2) so that the
Frobenius inner product of two matrices equals the dot product of their
svec images.  All adjoints in the package are then plain transposes.

Every order m has one cached, read-only index layout over the
d = m(m+1)/2 svec coordinates: the ``np.triu_indices(m)`` pair (a, b),
the flat offsets a*m + b of the upper and b*m + a of the lower entry, and
three per-coordinate scales (``half`` for svec, ``div`` for smat and
``scale`` for the conjugation matrix).  ``svec`` is then one gather and
``smat`` two scatters; both act on stacks over the leading axes.

The conjugation matrix K, defined by svec(P S P^T) = K svec(S), has the
closed form

    K[(a,b), (i,j)] = s_ab * s_ij * (P[a,i] P[b,j] + P[a,j] P[b,i])

with s = 1/sqrt(2) on diagonal coordinates and 1 elsewhere.  It holds for
any square P; K is orthogonal when P is.

``eig_split`` is the one eigendecomposition behind the PSD cone: it takes
svec coordinates, one vector or a stack, and returns the eigenvalues in
descending order with those near zero clamped to exactly 0, so that the
positive, zero and negative index sets (alpha, beta, gamma) are the signs
of lambda.  ``coupling`` gives the coefficient Sigma_ij of any index
pairs, the one copy of that formula.
"""

import functools
from typing import NamedTuple

import numpy as np

SQRT2 = float(np.sqrt(2.0))


class EigenDecompositionError(RuntimeError):
    """Raised when the symmetric eigensolver fails to converge."""


def svec_dim(order: int) -> int:
    return order * (order + 1) // 2


def svec_order(dim: int) -> int:
    """Matrix order m with m(m+1)/2 == dim."""
    m = int(round((np.sqrt(8 * dim + 1) - 1) / 2))
    if svec_dim(m) != dim:
        raise ValueError(f"{dim} is not a triangular number")
    return m


class SvecLayout(NamedTuple):
    """Read-only index arrays of the svec coordinates of one order.

    Coordinate k is the entry (rows[k], cols[k]) with rows[k] <= cols[k],
    in the order (0,0), (0,1), ..., (0,m-1), (1,1), ..., (m-1,m-1).
    """

    rows: np.ndarray
    cols: np.ndarray
    upper: np.ndarray
    lower: np.ndarray
    half: np.ndarray
    div: np.ndarray
    scale: np.ndarray


@functools.cache
def svec_layout(order: int) -> SvecLayout:
    rows, cols = np.triu_indices(order)
    diag = rows == cols
    layout = SvecLayout(rows, cols, rows * order + cols, cols * order + rows,
                        np.where(diag, 0.5, SQRT2 * 0.5), np.where(diag, 1.0, SQRT2),
                        np.where(diag, 1.0 / SQRT2, 1.0))
    for a in layout:
        a.setflags(write=False)
    return layout


def svec(A: np.ndarray) -> np.ndarray:
    """svec image of a symmetric matrix, or of each one in a stack (..., m, m)."""
    A = np.asarray(A, dtype=float)
    m = A.shape[-1]
    lay = svec_layout(m)
    flat = A.reshape(A.shape[:-2] + (m * m,))
    return (flat[..., lay.upper] + flat[..., lay.lower]) * lay.half


def smat(v: np.ndarray) -> np.ndarray:
    """Symmetric matrix of an svec vector; a stack (..., d) maps row-wise
    to (..., m, m)."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    m = svec_order(v.shape[-1])
    lay = svec_layout(m)
    w = v / lay.div
    A = np.empty(v.shape[:-1] + (m * m,))
    A[..., lay.upper] = w
    A[..., lay.lower] = w
    return A.reshape(v.shape[:-1] + (m, m))


def conjugation_matrix(P: np.ndarray) -> np.ndarray:
    """Matrix K with svec(P S P^T) = K svec(S), orthogonal when P is; a
    stack (..., m, m) maps to (..., d, d)."""
    P = np.asarray(P, dtype=float)
    lay = svec_layout(P.shape[-1])
    r, c = lay.rows, lay.cols
    R, C = P[..., r], P[..., c]
    # np.take keeps K C-ordered for a stack as for one matrix, so each
    # row's later products run the same BLAS path as a one-matrix call
    K = np.take(R, r, axis=-2) * np.take(C, c, axis=-2)
    K += np.take(R, c, axis=-2) * np.take(C, r, axis=-2)
    K *= lay.scale[:, None]
    K *= lay.scale
    return K


def eig_split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues in descending order, eigenvectors as columns in the same
    order, and the zero threshold, of smat(v) for an svec vector v or for
    each row of a stack (..., d).

    Eigenvalues within the threshold 1e-8 * max(1, max|lambda|) of zero
    are set to exactly zero, so the positive, zero and negative index sets
    are the signs of lambda.  ``eigh`` returns the spectrum in ascending
    order, so the descending one is its reversal, copied into C-contiguous
    arrays; no sort runs.
    """
    S = smat(v)
    try:
        w, P = np.linalg.eigh(S)
    except np.linalg.LinAlgError as exc:
        norms = np.linalg.norm(S, axis=(-2, -1)).ravel()
        where = f", the largest of {norms.size} in the stack" if norms.size > 1 else ""
        raise EigenDecompositionError(
            f"eigendecomposition failed for a symmetric matrix of order {S.shape[-1]} "
            f"(Frobenius norm {norms.max():.3e}{where})"
        ) from exc
    tol = np.asarray(1e-8 * np.fmax(1.0, np.max(np.abs(w), axis=-1, initial=0.0)))
    lam, P = w[..., ::-1].copy(), P[..., ::-1].copy()
    lam[np.abs(lam) <= tol[..., None]] = 0.0
    return lam, P, tol


def coupling(lam: np.ndarray, i, j) -> np.ndarray:
    """Coupling coefficients (lam_i^+ + lam_j^+) / (|lam_i| + |lam_j|) of the
    index pairs (i, j), with 0/0 := 1, for eigenvalues lam or a stack of
    them (..., m)."""
    pos = np.maximum(lam, 0.0)
    num = pos[..., i] + pos[..., j]
    den = np.abs(lam[..., i]) + np.abs(lam[..., j])
    with np.errstate(invalid="ignore"):
        return np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), 1.0)
