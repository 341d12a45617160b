"""Spectral probes of risk Hessians and finite-difference derivative checks.

Hessians are never formed by the risk models themselves; this module
assembles them densely from one hess_vec call on a stack of basis
directions, either the canonical ambient basis or an orthonormal horizontal
basis at a factor point. The Hessian probes also take a (B, *shape) stack
of points, as every risk model's hess_vec does, and then make one call for
the whole stack; each item equals the single-point value bit for bit. The
canonical stack is built once per model shape and shared read-only, so a
hess_vec that wrote into its directions would raise instead of corrupting
the next Hessian. Problem sizes here are small by design, so a dense
eigensolver is the right tool.

uses_quotient alone picks which of the two a model's curvature is read in:
factors with k >= 2 columns carry the O(k) gauge zeros in their ambient
Hessian, so they are read on the horizontal space. At k = 1 the horizontal
basis is the identity and the two forms agree bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, NonFiniteEntry
from .manifold import horizontal_basis

# central-difference steps: cube root of machine eps for first derivatives,
# fourth root for second derivatives
_EPS = float(np.finfo(float).eps)
GRAD_STEP_FACTOR = _EPS ** (1.0 / 3.0)
HESS_STEP_FACTOR = _EPS ** 0.25


@dataclass(frozen=True)
class FdCheck:
    """Outcome of a finite-difference comparison against an analytic formula."""

    max_rel_error: float
    step: float
    tol: float

    @property
    def passed(self) -> bool:
        return bool(self.max_rel_error <= self.tol)


def _check_finite(arr: np.ndarray, label: str) -> None:
    if not np.isfinite(arr).all():
        raise NonFiniteEntry(f"{label} produced a non-finite entry")


@functools.lru_cache(maxsize=16)
def _canonical_basis(shape: tuple[int, ...]) -> np.ndarray:
    """The (n, *shape) stack of canonical basis directions, read-only."""
    n = math.prod(shape)
    basis = np.eye(n).reshape(n, *shape)
    basis.setflags(write=False)
    return basis


def dense_euclidean_hessian(model, point) -> np.ndarray:
    """Assemble the ambient Hessian from hess_vec on the canonical basis stack.

    At a (B, *shape) stack of points, the (B, n, n) stack of their Hessians
    from one hess_vec call, each as at that point alone.
    """
    shape = model.shape
    basis = _canonical_basis(shape)
    # broadcast to (*B, n, *shape) for a stack of points
    basis = np.broadcast_to(basis, (*np.shape(point)[: -len(shape)], *basis.shape))
    images = model.hess_vec(point, basis)
    _check_finite(images, "hess_vec")
    # row j is the image of the j-th basis direction, the j-th column
    rows = images.reshape(basis.shape[: -len(shape)] + (-1,))
    return 0.5 * (rows + rows.swapaxes(-1, -2))


def restricted_hessian(model, point) -> tuple[np.ndarray, np.ndarray]:
    """The Hessian form restricted to the horizontal space at a factor point.

    Returns (form, mats): mats is the (d, N, k) orthonormal basis stack
    {E_i} from horizontal_basis, and form is the symmetrized
    d x d matrix B_ij = <hess_vec(U, E_i), E_j>, from one hess_vec call on
    the stack and one matmul of the flattened images against the flattened
    basis. At a (B, N, k) stack of points both gain a leading B axis.
    """
    mats = horizontal_basis(point)
    images = model.hess_vec(point, mats)
    _check_finite(images, "hess_vec")
    rows = mats.shape[:-2]  # (*B, d)
    form = images.reshape(*rows, -1) @ mats.reshape(*rows, -1).swapaxes(-1, -2)
    return 0.5 * (form + form.swapaxes(-1, -2)), mats


def uses_quotient(model) -> bool:
    """True when the model's curvature lives on the horizontal space: a
    factor model with k >= 2 columns."""
    return model.is_factor and model.shape[1] >= 2


def hessian_form(model, point) -> np.ndarray:
    """The Hessian in the model's own tangent space: restricted_hessian's
    form when uses_quotient, else the dense ambient Hessian. Takes a point
    or a (B, *shape) stack of them."""
    if uses_quotient(model):
        return restricted_hessian(model, point)[0]
    return dense_euclidean_hessian(model, point)


def min_eig(model, point) -> float | np.ndarray:
    """Smallest eigenvalue of hessian_form at a point, as a float; at a
    (B, *shape) stack of points, the (B,) array of them from one batched
    eigvalsh, each equal to the value at that point alone. eigvalsh skips
    the eigenvectors eigh would form; its eigenvalues may differ from
    eigh's in the last bits."""
    lam = np.linalg.eigvalsh(hessian_form(model, point))[..., 0]
    return lam if lam.ndim else float(lam)


def fd_grad_check(model, point, tol: float = 1e-5) -> FdCheck:
    """Central-difference check of euclidean_grad against value."""
    p = np.asarray(point, dtype=float)
    shape = p.shape
    flat = p.ravel().copy()
    step = GRAD_STEP_FACTOR * (1.0 + np.linalg.norm(flat))
    analytic = np.asarray(model.euclidean_grad(p), dtype=float).ravel()
    fd = np.empty_like(analytic)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] += step
        high = model.value(bumped.reshape(shape))
        bumped[i] -= 2.0 * step
        low = model.value(bumped.reshape(shape))
        fd[i] = (high - low) / (2.0 * step)
    scale = max(float(np.linalg.norm(analytic)), 1e-12)
    err = float(np.linalg.norm(fd - analytic)) / scale
    return FdCheck(err, step, tol)


def fd_hess_check(model, point, direction, tol: float = 1e-4) -> FdCheck:
    """Central-difference check of hess_vec along one direction, via grads.
    The direction must be finite (else NonFiniteEntry) and of nonzero norm
    (else InvalidConfig)."""
    p = np.asarray(point, dtype=float)
    d = np.asarray(direction, dtype=float)
    if not np.isfinite(d).all():
        raise NonFiniteEntry("direction entries must be finite")
    d_norm = np.linalg.norm(d)
    if d_norm == 0.0:
        raise InvalidConfig("a finite-difference check needs a direction of nonzero norm")
    d_unit = d / d_norm
    step = HESS_STEP_FACTOR * (1.0 + np.linalg.norm(p))
    analytic = np.asarray(model.hess_vec(p, d_unit), dtype=float)
    high = np.asarray(model.euclidean_grad(p + step * d_unit), dtype=float)
    low = np.asarray(model.euclidean_grad(p - step * d_unit), dtype=float)
    fd = (high - low) / (2.0 * step)
    scale = max(float(np.linalg.norm(analytic)), 1e-12)
    err = float(np.linalg.norm(fd - analytic)) / scale
    return FdCheck(err, step, tol)
