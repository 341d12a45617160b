"""Spectral probes of risk Hessians and finite-difference derivative checks.

Hessians are never formed by the risk models themselves; this module
assembles them densely from hess_vec actions on basis directions, either the
canonical ambient basis or an orthonormal horizontal basis at a factor
point. Problem sizes here are small by design, so dense eigh is the right
tool.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteEntry
from .manifold import HorizontalTangent, horizontal_basis

EIGVEC_UNIT_ATOL = 1e-12
RESIDUAL_RTOL = 1e-8

# central-difference steps: cube root of machine eps for first derivatives,
# fourth root for second derivatives
_EPS = float(np.finfo(float).eps)
GRAD_STEP_FACTOR = _EPS ** (1.0 / 3.0)
HESS_STEP_FACTOR = _EPS ** 0.25


@dataclass(frozen=True)
class SpectrumResult:
    """Smallest eigenvalue of a symmetric operator with its eigenvector.

    The eigenvector has unit norm and a deterministic sign: its
    largest-magnitude entry is positive. residual is ||H v - lambda v||_2
    in the space the operator was assembled in.
    """

    lambda_min: float
    eigvec: np.ndarray
    residual: float


@dataclass(frozen=True)
class FdCheck:
    """Outcome of a finite-difference comparison against an analytic formula."""

    max_rel_error: float
    step: float
    tol: float

    @property
    def passed(self) -> bool:
        return bool(self.max_rel_error <= self.tol)


def _fix_sign(vec: np.ndarray) -> np.ndarray:
    flat = vec.ravel()
    lead = flat[int(np.argmax(np.abs(flat)))]
    return -vec if lead < 0.0 else vec


def _check_finite(arr: np.ndarray, label: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NonFiniteEntry(f"{label} produced a non-finite entry")


def dense_euclidean_hessian(model, point) -> np.ndarray:
    """Assemble the ambient Hessian from hess_vec on the canonical basis."""
    shape = model.shape
    n = int(np.prod(shape))
    columns = np.empty((n, n))
    for j in range(n):
        basis_dir = np.zeros(n)
        basis_dir[j] = 1.0
        image = model.hess_vec(point, basis_dir.reshape(shape))
        _check_finite(image, "hess_vec")
        columns[:, j] = np.asarray(image, dtype=float).ravel()
    return 0.5 * (columns + columns.T)


def min_eig_euclidean(model, point) -> SpectrumResult:
    """Smallest eigenvalue of the ambient (Euclidean) Hessian at a point."""
    dense = dense_euclidean_hessian(model, point)
    eigvals, eigvecs = np.linalg.eigh(dense)
    lam = float(eigvals[0])
    vec = _fix_sign(eigvecs[:, 0])
    residual = float(np.linalg.norm(dense @ vec - lam * vec))
    vec = vec.reshape(model.shape)
    return SpectrumResult(lam, vec, residual)


def restricted_hessian(model, point) -> tuple[np.ndarray, np.ndarray]:
    """The Hessian form restricted to the horizontal space at a factor point.

    Returns (form, mats): mats is the (d, N, k) orthonormal basis stack
    {E_i} from horizontal_basis, and form is the symmetrized
    d x d matrix B_ij = <hess_vec(U, E_i), E_j>, taken as one matmul of the
    flattened basis against the flattened images.
    """
    mats = horizontal_basis(point)
    images = np.stack([model.hess_vec(point, e) for e in mats])
    _check_finite(images, "hess_vec")
    d = len(mats)
    form = images.reshape(d, -1) @ mats.reshape(d, -1).T
    return 0.5 * (form + form.T), mats


def min_eig_horizontal(model, point) -> SpectrumResult:
    """Smallest eigenvalue of the Hessian restricted to the horizontal space.

    The quadratic form comes from restricted_hessian; its eigenvector is
    returned as a HorizontalTangent. For k = 1 the horizontal space is the
    whole ambient space and the result matches min_eig_euclidean.
    """
    form, mats = restricted_hessian(model, point)
    eigvals, eigvecs = np.linalg.eigh(form)
    lam = float(eigvals[0])
    coeffs = eigvecs[:, 0]
    direction = np.tensordot(coeffs, mats, axes=(0, 0))
    # sign convention lives on the tangent entries, so flip coefficients too
    flat = direction.ravel()
    if flat[int(np.argmax(np.abs(flat)))] < 0.0:
        coeffs = -coeffs
        direction = -direction
    residual = float(np.linalg.norm(form @ coeffs - lam * coeffs))
    return SpectrumResult(lam, HorizontalTangent(direction, point), residual)


def fd_grad_check(model, point, tol: float = 1e-5) -> FdCheck:
    """Central-difference check of euclidean_grad against value."""
    p = np.asarray(
        point.entries if hasattr(point, "entries") else point, dtype=float
    )
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
    """Central-difference check of hess_vec along one direction, via grads."""
    p = np.asarray(
        point.entries if hasattr(point, "entries") else point, dtype=float
    )
    d = np.asarray(direction, dtype=float)
    d_unit = d / np.linalg.norm(d)
    step = HESS_STEP_FACTOR * (1.0 + np.linalg.norm(p))
    analytic = np.asarray(model.hess_vec(p, d_unit), dtype=float)
    high = np.asarray(model.euclidean_grad(p + step * d_unit), dtype=float)
    low = np.asarray(model.euclidean_grad(p - step * d_unit), dtype=float)
    fd = (high - low) / (2.0 * step)
    scale = max(float(np.linalg.norm(analytic)), 1e-12)
    err = float(np.linalg.norm(fd - analytic)) / scale
    return FdCheck(err, step, tol)
