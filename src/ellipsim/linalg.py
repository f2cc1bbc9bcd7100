"""Dense symmetric-matrix kernel and the unit-ball rule for rows.

Small, validated operations on positive semidefinite matrices: log-det
potentials, rank-one covariance shrinkage, Loewner-order checks and random
test-matrix generation. Everything is plain numpy on float64 arrays; the
:class:`PsdMatrix` wrapper exists to make validation explicit at module
boundaries rather than scattered through callers. Row norms, the paper's
unit-ball check and row normalization live here too (:func:`row_norms`,
:func:`check_unit_rows`, :func:`unit_rows`), so action sets,
finite-support atoms and eq. 1's replay refuse the same rows.
"""
from __future__ import annotations

from typing import Optional

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .tolerances import NORM_SLACK, PSD_SLACK, SYMMETRY_REL

Array = NDArray[np.float64]


class CholeskyFailure(np.linalg.LinAlgError):
    """Cholesky factorization failed even after jitter retries."""


def symmetrize(mat: ArrayLike) -> Array:
    """Return the symmetric part (M + M.T) / 2 as a float64 array."""
    arr = np.asarray(mat, dtype=np.float64)
    return (arr + arr.T) / 2.0


def is_symmetric(mat: Array) -> bool:
    """Check entrywise symmetry up to relative tolerance.

    The comparison is |M_ij - M_ji| <= SYMMETRY_REL * max(1, |M_ij|, |M_ji|),
    so tiny asymmetries from accumulated rounding pass while genuinely
    lopsided matrices do not.
    """
    arr = np.asarray(mat, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        return False
    scale = np.maximum(1.0, np.maximum(np.abs(arr), np.abs(arr.T)))
    return bool(np.all(np.abs(arr - arr.T) <= SYMMETRY_REL * scale))


def row_norms(rows: ArrayLike) -> Array:
    """Euclidean row norms, ``np.linalg.norm(rows, axis=1)``'s bits on a
    C-ordered copy, so a row has one norm in any array that holds it."""
    a = np.ascontiguousarray(rows, dtype=np.float64)
    return np.sqrt((a * a).sum(axis=1))


def check_unit_rows(rows: ArrayLike, what: str) -> None:
    """Refuse the first row whose :func:`row_norms` norm is not within
    NORM_SLACK of the unit ball; ``what`` names the rows in the message."""
    norms = row_norms(rows)
    # written so that a NaN fails it
    outside = ~(norms <= 1.0 + NORM_SLACK)
    if outside.any():
        norm = float(norms[outside.argmax()])
        raise ValueError(f"{what} norms must be <= 1 (the unit ball), got {norm}")


def unit_rows(rows: ArrayLike) -> Array:
    """Each row divided by its :func:`row_norms` norm; a zero row stays zero."""
    norms = row_norms(rows)
    norms[norms == 0.0] = 1.0
    return rows / norms[:, None]


def min_eigenvalue(mat: ArrayLike) -> float:
    """Smallest eigenvalue of a symmetric matrix (via eigvalsh)."""
    return float(np.linalg.eigvalsh(symmetrize(mat))[0])


class PsdMatrix:
    """A validated positive semidefinite matrix.

    Construction checks squareness, finite entries, symmetry (up to
    tolerance) and that the smallest eigenvalue is >= -psd_slack. The
    stored array is the symmetrized copy, marked read-only so shared
    references cannot drift.

    Use :meth:`unchecked` on hot paths where the producer already
    guarantees the invariants; it only symmetrizes and freezes.
    """

    __slots__ = ("mat",)

    def __init__(self, mat: ArrayLike):
        arr = np.asarray(mat, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        finite = np.isfinite(arr)
        if not finite.all():
            bad = np.argwhere(~finite)
            i, j = bad[0]
            more = f" and {len(bad) - 1} more" if len(bad) > 1 else ""
            raise ValueError(
                f"matrix entries must be finite, got {arr[i, j]} at ({i}, {j}){more}"
            )
        if not is_symmetric(arr):
            raise ValueError("matrix is not symmetric within tolerance")
        sym = symmetrize(arr)
        lo = float(np.linalg.eigvalsh(sym)[0])
        if lo < -PSD_SLACK:
            raise ValueError(
                f"matrix is not positive semidefinite: min eigenvalue {lo:.3e}"
            )
        sym.flags.writeable = False
        self.mat = sym

    @classmethod
    def unchecked(cls, mat: ArrayLike) -> "PsdMatrix":
        """Wrap a trusted array without the eigenvalue check."""
        obj = cls.__new__(cls)
        sym = symmetrize(mat)
        sym.flags.writeable = False
        obj.mat = sym
        return obj

    @classmethod
    def identity(cls, dim: int) -> "PsdMatrix":
        return cls.unchecked(np.eye(dim))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def quad_form(self, v: ArrayLike) -> float:
        """v.T @ M @ v as a scalar."""
        vec = np.asarray(v, dtype=np.float64)
        return float(vec @ self.mat @ vec)

    def __array__(self, dtype=None, copy=None) -> Array:
        # np.array asks for a fresh, writeable copy; np.asarray shares the
        # read-only buffer
        if copy:
            return np.array(self.mat, dtype=dtype)
        return np.asarray(self.mat, dtype=dtype)

    def __repr__(self) -> str:
        return f"PsdMatrix(dim={self.dim})"


JITTER_RETRIES = 3


def jittered_cholesky(mat: ArrayLike) -> Array:
    """Lower Cholesky factor with an escalating diagonal jitter fallback.

    First attempts a plain factorization. On failure, adds
    1e-12 * trace(M)/dim to the diagonal and retries, multiplying the
    jitter by 10 on each subsequent attempt, up to ``JITTER_RETRIES`` retries.
    Raises :class:`CholeskyFailure` if every attempt fails.

    ``mat`` must be symmetric: only its lower triangle is read, as
    ``np.linalg.cholesky`` reads it, so no symmetrized copy is made.
    """
    arr = np.asarray(mat, dtype=np.float64)
    dim = arr.shape[0]
    try:
        return np.linalg.cholesky(arr)
    except np.linalg.LinAlgError:
        pass
    jitter = 1e-12 * float(np.trace(arr)) / dim
    eye = np.eye(dim)
    for _ in range(JITTER_RETRIES):
        try:
            return np.linalg.cholesky(arr + jitter * eye)
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise CholeskyFailure(
        f"Cholesky failed after {JITTER_RETRIES} jitter retries (dim={dim})"
    )


def logdet_psd(mat: ArrayLike) -> float:
    """log det of a positive definite matrix via its unjittered Cholesky factor."""
    chol = np.linalg.cholesky(symmetrize(mat))
    return 2.0 * float(np.sum(np.log(np.diag(chol))))


def logdet_potential(sigma: ArrayLike, x: float) -> float:
    """log det(I + x * Sigma) for x >= 0 and Sigma PSD.

    Nonnegative for any PSD Sigma, zero at x = 0, and concave,
    nondecreasing in Sigma in the Loewner order.
    """
    arr = np.asarray(sigma, dtype=np.float64)
    if x < 0:
        raise ValueError(f"x must be nonnegative, got {x}")
    return logdet_psd(np.eye(arr.shape[0]) + x * arr)


def rank_one_shrink(sigma: ArrayLike, v: ArrayLike) -> PsdMatrix:
    """Posterior-style covariance shrink by one observation direction.

    Returns Sigma - (Sigma v)(Sigma v).T / (1 + v.T Sigma v), the result of
    conditioning a covariance Sigma on a unit-noise linear observation
    along v. Equivalently, the inverse gains a rank-one term:
    result^{-1} = Sigma^{-1} + v v.T when Sigma is invertible.
    """
    arr = np.asarray(sigma, dtype=np.float64)
    vec = np.asarray(v, dtype=np.float64)
    sv = arr @ vec
    denom = 1.0 + float(vec @ sv)
    out = arr - np.outer(sv, sv) / denom
    return PsdMatrix(symmetrize(out))


def psd_order_holds(a: ArrayLike, b: ArrayLike) -> bool:
    """Loewner-order test: does A <= B hold, i.e. is B - A PSD up to PSD_SLACK?"""
    diff = symmetrize(np.subtract(b, a, dtype=np.float64))
    return float(np.linalg.eigvalsh(diff)[0]) >= -PSD_SLACK


def random_psd(
    dim: int,
    scale: float,
    rng: np.random.Generator,
    rank: Optional[int] = None,
) -> PsdMatrix:
    """Random PSD test matrix with eigenvalues in [0, scale].

    Draws a Haar-ish orthogonal basis from the QR factorization of a
    Gaussian matrix and uniform eigenvalues, zeroing dim - rank of them
    when ``rank`` is given so rank deficiency is exact, not approximate.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if scale < 0:
        raise ValueError(f"scale must be nonnegative, got {scale}")
    if rank is None:
        rank = dim
    if not 0 <= rank <= dim:
        raise ValueError(f"rank must be in [0, {dim}], got {rank}")
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q = q * np.sign(np.where(np.diag(r) == 0, 1.0, np.diag(r)))
    eigs = rng.uniform(0.0, scale, size=dim)
    eigs[rank:] = 0.0
    return PsdMatrix.unchecked((q * eigs) @ q.T)


def psd_sqrt(mat: ArrayLike) -> Array:
    """Symmetric PSD square root via eigendecomposition.

    Negative eigenvalues within rounding slack are clipped to zero.
    """
    arr = symmetrize(mat)
    eigvals, eigvecs = np.linalg.eigh(arr)
    eigvals = np.clip(eigvals, 0.0, None)
    return (eigvecs * np.sqrt(eigvals)) @ eigvecs.T


def chol_solve(chol_lower: Array, b: ArrayLike) -> Array:
    """Solve (L L.T) x = b given the lower factor L: L w = b, then L.T x = w."""
    w = np.linalg.solve(chol_lower, np.asarray(b, dtype=np.float64))
    return np.linalg.solve(chol_lower.T, w)
