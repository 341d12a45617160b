"""Quotient geometry of full-rank factor matrices modulo orthogonal gauge.

Points are N x k real matrices of full column rank; two points U and UQ with
Q orthogonal describe the same rank-k PSD matrix UU^T, so the search space is
the quotient by O(k). The vertical space at U is {U W : W skew}, the
horizontal space is its orthogonal complement {D : D^T U = U^T D}, and the
Procrustes distance min_Q ||U - VQ||_F is the natural quotient metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    GramNotSPD,
    NonFiniteEntry,
    NotHorizontal,
    NotSkew,
)

# Validation tolerances. Relative throughout; absolute floors guard the
# zero-scale corner cases.
GRAM_SPD_RTOL = 1e-12
SKEW_INPUT_RTOL = 1e-10
SYLVESTER_RESIDUAL_RTOL = 1e-10
HORIZONTAL_RTOL = 1e-10


def _as_matrix(obj) -> np.ndarray:
    if isinstance(obj, HorizontalTangent):
        return obj.entries
    arr = np.asarray(obj, dtype=float)
    if arr.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d array, got shape {arr.shape}")
    return arr


def _frozen_copy(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class HorizontalTangent:
    """A tangent direction D at base point U with D^T U symmetric.

    The constructor verifies horizontality: ||D^T U - U^T D||_F must not
    exceed HORIZONTAL_RTOL * ||D||_F * ||U||_F. Use horizontal_project to
    build one from an arbitrary ambient direction.
    """

    entries: np.ndarray
    base: np.ndarray = field(repr=False)

    def __post_init__(self):
        d = np.asarray(self.entries, dtype=float)
        u = _as_matrix(self.base)
        if d.shape != u.shape:
            raise DimensionMismatch(
                f"tangent shape {d.shape} does not match base shape {u.shape}"
            )
        if not np.isfinite(d).all():
            raise NonFiniteEntry("tangent entries must be finite")
        skew_part = d.T @ u - u.T @ d
        bound = HORIZONTAL_RTOL * np.linalg.norm(d) * np.linalg.norm(u)
        if np.linalg.norm(skew_part) > max(bound, 0.0):
            raise NotHorizontal(
                f"direction is not horizontal: ||D^T U - U^T D|| = "
                f"{np.linalg.norm(skew_part):.3e} exceeds {bound:.3e}"
            )
        object.__setattr__(self, "entries", _frozen_copy(d))
        object.__setattr__(self, "base", _frozen_copy(u))

    def norm(self) -> float:
        return float(np.linalg.norm(self.entries))


@dataclass(frozen=True)
class SkewFactor:
    """A k x k skew-symmetric matrix stored by its strict lower triangle.

    Mirroring is exact by construction: matrix() returns L - L^T, so
    matrix()[i, j] == -matrix()[j, i] holds bit-for-bit and the diagonal
    is exactly zero.
    """

    strict_lower: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.strict_lower, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionMismatch(f"strict lower part must be square, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise NonFiniteEntry("skew entries must be finite")
        object.__setattr__(self, "strict_lower", _frozen_copy(np.tril(arr, k=-1)))

    @classmethod
    def from_matrix(cls, omega: np.ndarray) -> "SkewFactor":
        m = np.asarray(omega, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"skew matrix must be square, got {m.shape}")
        asym = np.linalg.norm(m + m.T)
        if asym > SKEW_INPUT_RTOL * max(np.linalg.norm(m), 1e-300):
            raise NotSkew(f"matrix is not skew-symmetric: ||M + M^T|| = {asym:.3e}")
        return cls(np.tril(m, k=-1))

    @property
    def dim(self) -> int:
        return self.strict_lower.shape[0]

    def matrix(self) -> np.ndarray:
        return self.strict_lower - self.strict_lower.T


def _require_spd(eigvals: np.ndarray) -> None:
    """Gate on ascending Gram eigenvalues: the smallest must clear
    GRAM_SPD_RTOL times the largest."""
    if eigvals[0] <= GRAM_SPD_RTOL * max(eigvals[-1], 0.0):
        raise GramNotSPD(
            f"gram matrix is numerically singular: min eig {eigvals[0]:.3e}, "
            f"max eig {eigvals[-1]:.3e}"
        )


def solve_skew_sylvester(gram: np.ndarray, rhs: np.ndarray) -> SkewFactor:
    """Solve Omega G + G Omega = S for skew Omega, G symmetric positive definite.

    G is eigendecomposed as V diag(g) V^T and the solution is read off
    entrywise in that basis, (V^T Omega V)_ij = (V^T S V)_ij / (g_i + g_j).
    Raises GramNotSPD when the smallest eigenvalue of G does not clear
    GRAM_SPD_RTOL times the largest, and NotSkew when S is not skew.
    """
    g_mat = np.asarray(gram, dtype=float)
    s_mat = np.asarray(rhs, dtype=float)
    if g_mat.ndim != 2 or g_mat.shape[0] != g_mat.shape[1]:
        raise DimensionMismatch(f"gram matrix must be square, got {g_mat.shape}")
    if s_mat.shape != g_mat.shape:
        raise DimensionMismatch(
            f"rhs shape {s_mat.shape} does not match gram shape {g_mat.shape}"
        )
    if not (np.isfinite(g_mat).all() and np.isfinite(s_mat).all()):
        raise NonFiniteEntry("sylvester inputs must be finite")
    s_norm = np.linalg.norm(s_mat)
    if np.linalg.norm(s_mat + s_mat.T) > SKEW_INPUT_RTOL * max(s_norm, 1e-300):
        raise NotSkew("sylvester rhs must be skew-symmetric")

    sym = 0.5 * (g_mat + g_mat.T)
    eigvals, eigvecs = np.linalg.eigh(sym)
    _require_spd(eigvals)
    s_tilde = eigvecs.T @ s_mat @ eigvecs
    omega_tilde = s_tilde / (eigvals[:, None] + eigvals[None, :])
    omega = eigvecs @ omega_tilde @ eigvecs.T
    omega = 0.5 * (omega - omega.T)

    residual = np.linalg.norm(omega @ sym + sym @ omega - s_mat)
    budget = SYLVESTER_RESIDUAL_RTOL * (
        np.linalg.norm(sym) * np.linalg.norm(omega) + s_norm
    )
    if residual > max(budget, 1e-300):
        raise GramNotSPD(
            f"sylvester solve lost accuracy: residual {residual:.3e} "
            f"exceeds {budget:.3e}"
        )
    return SkewFactor(np.tril(omega, k=-1))


def horizontal_project(u, z) -> HorizontalTangent:
    """Orthogonal projection of an ambient direction Z onto the horizontal
    space at U: P_U(Z) = Z - U Omega with Omega solving the skew Sylvester
    equation Omega G + G Omega = U^T Z - Z^T U, G = U^T U."""
    u_mat = _as_matrix(u)
    z_mat = np.asarray(z, dtype=float)
    if z_mat.shape != u_mat.shape:
        raise DimensionMismatch(
            f"direction shape {z_mat.shape} does not match point shape {u_mat.shape}"
        )
    gram = u_mat.T @ u_mat
    horiz = z_mat
    # Two passes: the first removes the vertical component, the second is
    # iterative refinement so the leftover skew defect scales with the
    # output norm rather than the input norm.
    for _ in range(2):
        skew_rhs = horiz.T @ u_mat - u_mat.T @ horiz
        skew_rhs = 0.5 * (skew_rhs - skew_rhs.T)  # exact skewness for the solver gate
        omega = solve_skew_sylvester(gram, -skew_rhs)
        horiz = horiz - u_mat @ omega.matrix()
    if np.linalg.norm(horiz) <= 1e-12 * np.linalg.norm(z_mat):
        # The input was vertical up to rounding; the true projection is zero.
        horiz = np.zeros_like(z_mat)
    return HorizontalTangent(horiz, u_mat)


def procrustes_distance(u, v) -> float:
    """Gauge-invariant distance min over orthogonal Q of ||U - VQ||_F.

    Reflections are included (full O(k), not SO(k)); for k = 1 this is
    min(||u - v||, ||u + v||)."""
    dist, _ = procrustes_align(u, v)
    return dist


def procrustes_align(u, v) -> tuple[float, np.ndarray]:
    """Distance and the optimal gauge: Q minimizing ||U - VQ||_F."""
    u_mat = _as_matrix(u)
    v_mat = _as_matrix(v)
    if u_mat.shape != v_mat.shape:
        raise DimensionMismatch(
            f"cannot compare factors of shapes {u_mat.shape} and {v_mat.shape}"
        )
    cross = v_mat.T @ u_mat
    left, _, right_t = np.linalg.svd(cross)
    q_opt = left @ right_t
    # norm of the aligned difference, not the nuclear-norm identity: the
    # identity cancels catastrophically near zero distance
    return _norm(u_mat - v_mat @ q_opt), q_opt


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of all entries, by np.linalg.norm's own ord=None path
    (ravel in memory order, dot, sqrt), so the bits match it.

    Private on purpose: perfbench's tracer wraps every public function, and
    this one runs several times per classified proposal and Newton step.
    """
    flat = v.ravel(order="K")
    return math.sqrt(float(flat.dot(flat)))


def item_norms(stack: np.ndarray, item_ndim: int) -> np.ndarray:
    """Frobenius norm of each item of a stack whose items have item_ndim
    axes, rounded exactly as np.linalg.norm of the item alone.

    Each is the square root of a row-times-column product, the dot product
    np.linalg.norm takes of one raveled item; a norm over axis= sums in
    another order and differs in the last bit on many items.
    """
    arr = np.asarray(stack, dtype=float)
    lead = arr.shape[: arr.ndim - item_ndim]
    flat = arr.reshape(-1, math.prod(arr.shape[len(lead):]))
    return np.sqrt((flat[:, None, :] @ flat[:, :, None])[:, 0, 0]).reshape(lead)


def horizontal_basis(u) -> np.ndarray:
    """Orthonormal basis of the horizontal space at U, as a (d, N, k) stack.

    The vertical space is spanned by the k(k-1)/2 matrices U(E_ij - E_ji),
    i < j. The trailing d = Nk - k(k-1)/2 columns of a complete QR of that
    Nk x k(k-1)/2 block are orthonormal and orthogonal to it, so they are
    the basis. For k = 1 the block is empty and the basis is canonical.
    A (..., N, k) stack of points gives the (..., d, N, k) stack of their
    bases, from one batched QR, each item as for that point alone.
    Raises NotHorizontal when some ||B_i^T U - U^T B_i|| exceeds
    HORIZONTAL_RTOL * ||U||, and GramNotSPD when U^T U fails the
    GRAM_SPD_RTOL gate, where the vertical block loses rank; on a stack
    the gates apply to each point.
    """
    u_mat = np.asarray(u, dtype=float)
    if u_mat.ndim < 2:
        raise DimensionMismatch(f"expected a 2-d array, got shape {u_mat.shape}")
    if not np.isfinite(u_mat).all():
        raise NonFiniteEntry("factor entries must be finite")
    *lead, n, k = u_mat.shape
    for eigvals in np.linalg.eigvalsh(np.swapaxes(u_mat, -1, -2) @ u_mat).reshape(-1, k):
        _require_spd(eigvals)
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    vertical = np.zeros((*lead, len(pairs), n, k))
    for t, (i, j) in enumerate(pairs):
        vertical[..., t, :, j] = u_mat[..., :, i]
        vertical[..., t, :, i] = -u_mat[..., :, j]
    flat = np.swapaxes(vertical.reshape(*lead, len(pairs), n * k), -1, -2)
    q_full, _ = np.linalg.qr(flat, mode="complete")
    # contiguous, so downstream GEMMs round the same as on a fresh stack
    basis = np.ascontiguousarray(np.swapaxes(q_full[..., len(pairs):], -1, -2))
    basis = basis.reshape(*lead, -1, n, k)
    u_item = u_mat[..., None, :, :]
    skew = np.linalg.norm(
        np.swapaxes(basis, -1, -2) @ u_item - np.swapaxes(u_item, -1, -2) @ basis,
        axis=(-2, -1),
    )
    if np.any(skew > HORIZONTAL_RTOL * item_norms(u_mat, 2)[..., None]):  # unit-norm B_i
        raise NotHorizontal(f"basis is not horizontal: max defect {np.max(skew):.3e}")
    return basis
