"""Critical point search and correspondence with analytic references.

A damped Newton iteration on the gradient map finds critical points of any
risk model from seed points; records carry the limiting gradient norm and a
curvature classification. Analytic enumerations of the population critical
points serve as references, and a greedy mutual-nearest matching pairs a
found set against a reference set.

Factor models with k >= 2 columns are classified through the horizontal
restriction of the Hessian and deduplicated up to gauge; width-one factors
and plain vectors live in ambient coordinates, where sign-flipped copies
are distinct points.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import GramNotSPD, InvalidConfig
from .manifold import _norm, procrustes_distance
from .risk_models import SensingGroundTruth, _coerce
from .spectral import (
    dense_euclidean_hessian,
    min_eig,
    restricted_hessian,
    uses_quotient,
)

# convergence declared at 1e-8 * (1 + value scale); curvature sign calls and
# duplicate merges use the model's own scales
TAU_CRIT_FACTOR = 1e-8
TAU_EIG_FACTOR = 1e-6
TAU_DEDUPE_FACTOR = 1e-4

MAX_NEWTON_ITER = 100
MAX_POLISH_ITER = 40
MAX_BACKTRACKS = 20
MAX_STALLS = 5
MAX_SEARCH_DIM = 64
MAX_GRID_POINTS = 10**6  # seeds of a seed grid, values of a line or plane grid

KIND_MIN = "LocalMin"
KIND_SADDLE = "StrictSaddle"
KIND_DEGENERATE = "Degenerate"


def _damped_newton_step(hess: np.ndarray, grad_flat: np.ndarray) -> np.ndarray:
    """Newton step that repels saddles: eigenvalues keep their sign but
    their magnitude is floored, so the step stays finite near degeneracy."""
    eigvals, eigvecs = np.linalg.eigh(hess)
    mags = np.abs(eigvals)
    floor = 1e-10 * max(float(mags.max()), 1e-30)
    signs = np.where(eigvals >= 0.0, 1.0, -1.0)
    damped = signs * np.maximum(mags, floor)
    return -eigvecs @ ((eigvecs.T @ grad_flat) / damped)


def _capped(step: np.ndarray, point: np.ndarray) -> tuple[np.ndarray, float]:
    """Shrink a step to the cap 0.5 * (1 + ||point||) if it is longer;
    returns the step and the cap."""
    cap = 0.5 * (1.0 + _norm(point))
    step_norm = _norm(step)
    if step_norm > cap:
        step = step * (cap / step_norm)
    return step, cap


def _backtrack(
    model, point: np.ndarray, grad: np.ndarray, grad_norm: float, step: np.ndarray
):
    """Halve the step until the gradient norm falls below grad_norm.

    Returns (point, grad, grad_norm) for the first such candidate, with the
    gradient evaluated there, so the caller need not evaluate it again; or
    the inputs unchanged when MAX_BACKTRACKS halvings all fail.
    """
    scale = 1.0
    for _ in range(MAX_BACKTRACKS):
        candidate = point + scale * step
        cand_grad = model.euclidean_grad(candidate)
        norm = _norm(cand_grad)
        if norm < grad_norm:
            return candidate, cand_grad, norm
        scale *= 0.5
    return point, grad, grad_norm


def damped_newton(model, seed_point):
    """Drive the gradient to zero from one seed.

    Returns (point, grad_norm, n_iter, converged). Convergence means the
    gradient norm dropped below 1e-8 * (1 + value scale); afterwards a
    polish phase keeps stepping while the gradient still shrinks, which
    pushes through directions where the Hessian degenerates at the root.
    The gradient is evaluated once per point tried: an accepted point
    keeps the gradient its acceptance test computed.
    """
    point = _coerce(seed_point, model.shape)
    tau = TAU_CRIT_FACTOR * (1.0 + model.value_scale)
    grad = model.euclidean_grad(point)
    grad_norm = _norm(grad)
    stalls = 0
    iters = 0
    while iters < MAX_NEWTON_ITER and grad_norm > tau:
        iters += 1
        hess = dense_euclidean_hessian(model, point)
        step = _damped_newton_step(hess, grad.ravel()).reshape(point.shape)
        step, _ = _capped(step, point)
        prev_norm = grad_norm
        point, grad, grad_norm = _backtrack(model, point, grad, grad_norm, step)
        if grad_norm >= prev_norm:
            stalls += 1
            if stalls >= MAX_STALLS:
                break
        else:
            stalls = 0
    converged = grad_norm <= tau
    if converged:
        for _ in range(MAX_POLISH_ITER):
            hess = dense_euclidean_hessian(model, point)
            step = _damped_newton_step(hess, grad.ravel()).reshape(point.shape)
            step, _ = _capped(step, point)
            candidate = point + step
            cand_grad = model.euclidean_grad(candidate)
            norm = _norm(cand_grad)
            if not (norm < 0.9 * grad_norm or norm == 0.0):
                break
            point, grad, grad_norm = candidate, cand_grad, norm
            if grad_norm == 0.0:
                break
    return point, grad_norm, iters, converged


@dataclass(frozen=True)
class CriticalPointRecord:
    location: np.ndarray
    grad_norm: float
    lambda_min: float
    kind: str
    note: str = ""

    def to_json_dict(self) -> dict:
        return {
            "location_row_major": self.location.ravel().tolist(),
            "shape": list(self.location.shape),
            "grad_norm": self.grad_norm,
            "lambda_min": self.lambda_min,
            "kind": self.kind,
            "note": self.note,
        }


@dataclass(frozen=True)
class CriticalSearchResult:
    records: tuple
    n_seeds: int
    n_converged: int
    n_failed: int
    dedupe_tol: float

    @property
    def locations(self) -> list:
        return [r.location for r in self.records]

    def of_kind(self, kind: str) -> list:
        return [r for r in self.records if r.kind == kind]

    def to_json_dict(self) -> dict:
        return {
            "n_seeds": self.n_seeds,
            "n_converged": self.n_converged,
            "n_failed": self.n_failed,
            "dedupe_tol": self.dedupe_tol,
            "records": [r.to_json_dict() for r in self.records],
        }


def _dedupe_distance(model, a: np.ndarray, b: np.ndarray) -> float:
    if uses_quotient(model):
        return procrustes_distance(a, b)
    return float(np.linalg.norm(a - b))


def _classify(model, point: np.ndarray):
    tau_eig = TAU_EIG_FACTOR * model.hessian_scale
    note = ""
    try:
        lam = min_eig(model, point)
    except GramNotSPD:
        # the quotient geometry breaks down at rank-deficient factors;
        # fall back to the ambient Hessian, which only widens the
        # negative spectrum
        lam = np.linalg.eigh(dense_euclidean_hessian(model, point))[0][0]
        note = "rank-deficient factor, ambient curvature reported"
    if lam > tau_eig:
        kind = KIND_MIN
    elif lam < -tau_eig:
        kind = KIND_SADDLE
    else:
        kind = KIND_DEGENERATE
    return float(lam), kind, note


def find_critical_points(model, seed_points) -> CriticalSearchResult:
    """Run the damped Newton search from every seed and merge duplicates.

    Seeds that fail to converge are counted, not fatal. Duplicates merge
    at 1e-4 times the domain scale, keeping the representative with the
    smaller gradient norm.
    """
    dim = int(np.prod(model.shape))
    if dim > MAX_SEARCH_DIM:
        raise InvalidConfig(
            f"dense search supports at most {MAX_SEARCH_DIM} dimensions, "
            f"model has {dim}"
        )
    tol = TAU_DEDUPE_FACTOR * model.domain_scale
    found: list[CriticalPointRecord] = []
    n_converged = 0
    n_failed = 0
    n_seeds = 0
    for seed in seed_points:
        n_seeds += 1
        point, grad_norm, _, converged = damped_newton(model, seed)
        if not converged:
            n_failed += 1
            continue
        n_converged += 1
        keeper = None
        for i, record in enumerate(found):
            if _dedupe_distance(model, record.location, point) <= tol:
                keeper = i
                break
        # the smaller gradient wins, not the first seed: at a degenerate
        # point the gradient grows only cubically along the null direction
        # (the ms2d_rank1 population origin, Hessian eigenvalues -2 and 0,
        # along (1, 1)), so a converged seed can stop micro-units away; the
        # first seed there kept a point 2.6e-6 from the origin with gradient
        # norm 1.7e-17, outside a 1e-6 match to the analytic point
        if keeper is not None and grad_norm >= found[keeper].grad_norm:
            continue
        lam, kind, note = _classify(model, point)
        record = CriticalPointRecord(
            location=point,
            grad_norm=grad_norm,
            lambda_min=lam,
            kind=kind,
            note=note,
        )
        if keeper is None:
            found.append(record)
        else:
            found[keeper] = record
    return CriticalSearchResult(
        records=tuple(found),
        n_seeds=n_seeds,
        n_converged=n_converged,
        n_failed=n_failed,
        dedupe_tol=tol,
    )


def grid_seed_points(lo: float, hi: float, spacing: float, dim: int) -> list:
    """Uniform grid seeds over [lo, hi]^dim, inclusive of both ends."""
    if not (hi > lo and spacing > 0.0):
        raise InvalidConfig("grid needs hi > lo and positive spacing")
    count = int(round((hi - lo) / spacing)) + 1
    # checked before the axis is built: a wide span would not fit in memory
    if dim * math.log(count) > math.log(MAX_GRID_POINTS):
        raise InvalidConfig("grid would exceed a million seeds")
    axis = np.linspace(lo, hi, count)
    return [np.array(p) for p in itertools.product(axis, repeat=dim)]


def refine_minimum_horizontal(model, seed_point):
    """Newton refinement of a factor minimum inside the horizontal space.

    Builds the horizontal Hessian with restricted_hessian and steps only
    along horizontal directions, so the gauge degeneracy of the ambient
    Hessian never enters. Intended for polishing near-minima; returns the refined
    factor and its Riemannian gradient norm. As in damped_newton, the
    gradient is evaluated once per point tried.
    """
    if not model.is_factor:
        raise InvalidConfig("horizontal refinement needs a factor model")
    point = _coerce(seed_point, model.shape)
    tau = TAU_CRIT_FACTOR * (1.0 + model.value_scale)
    grad = model.euclidean_grad(point)
    grad_norm = _norm(grad)
    for _ in range(MAX_NEWTON_ITER):
        if grad_norm <= tau:
            break
        hess, mats = restricted_hessian(model, point)
        flat = mats.reshape(len(mats), -1)
        coeffs = _damped_newton_step(hess, flat @ grad.ravel())
        step, cap = _capped((coeffs @ flat).reshape(point.shape), point)
        prev_norm = grad_norm
        point, grad, grad_norm = _backtrack(model, point, grad, grad_norm, step)
        if grad_norm >= prev_norm:
            # Newton stalled; a value-decreasing gradient step keeps the
            # refinement moving through nearly flat valleys where the
            # Newton direction loses to its own small eigenvalues.
            value = model.value(point)
            scale = cap / max(grad_norm, 1e-30)
            moved = False
            for _ in range(MAX_BACKTRACKS):
                candidate = point - scale * grad
                if model.value(candidate) < value:
                    point = candidate
                    moved = True
                    break
                scale *= 0.5
            if not moved:
                break
            grad = model.euclidean_grad(point)
            grad_norm = _norm(grad)
    return point, grad_norm


# ---------------------------------------------------------------------------
# analytic references
# ---------------------------------------------------------------------------


def analytic_critical_points_ms(
    truth: SensingGroundTruth, include_signs: bool = False
) -> list:
    """Population critical factors: one canonical representative per
    eigendirection subset of size at most k, zero-padded on the right.

    include_signs expands each nonzero point to both signs, which only
    makes sense in ambient width-one coordinates.
    """
    k = truth.target_rank
    if include_signs and k != 1:
        raise InvalidConfig("sign expansion is only meaningful for width one")
    points = []
    for size in range(k + 1):
        for subset in itertools.combinations(range(truth.rank), size):
            block = truth.eigvecs[:, list(subset)] * np.sqrt(
                truth.eigvals[list(subset)]
            )
            point = np.zeros((truth.dim, k))
            point[:, :size] = block
            points.append(point)
            if include_signs and size > 0:
                points.append(-point)
    return points


def analytic_critical_points_pr(signal) -> list:
    """Population critical vectors: zero, both signs of the signal, and a
    representative saddle pair per orthocomplement direction.

    For N = 2 the saddle set is exactly those two points; for N >= 3 it is
    a whole sphere and the returned saddles are representatives only.
    """
    xstar = np.asarray(signal, dtype=float)
    dim = xstar.shape[0]
    norm_star = float(np.linalg.norm(xstar))
    points = [np.zeros(dim), xstar.copy(), -xstar.copy()]
    if dim >= 2:
        basis, _ = np.linalg.qr(
            np.column_stack([xstar / norm_star, np.eye(dim)])[:, : dim + 1]
        )
        for i in range(1, dim):
            w = basis[:, i]
            saddle = norm_star / math.sqrt(3.0) * w
            points.append(saddle)
            points.append(-saddle)
    return points


# ---------------------------------------------------------------------------
# correspondence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorrespondenceReport:
    """Greedy mutual-nearest matching of found points against references.

    pairs hold (found_index, reference_index, distance). Unmatched found
    points are labeled spurious, unmatched references missed. The
    heuristic_bound 2 * epsilon / eta estimates how far an empirical
    critical point can drift from its population counterpart when the
    gradient deviation stays under epsilon and the curvature stays above
    eta; it normalizes the local curvature to one, so it guides rather
    than certifies.
    """

    pairs: tuple
    spurious: tuple
    missed: tuple
    heuristic_bound: float

    @property
    def all_matched_within_bound(self) -> bool:
        if self.spurious or self.missed:
            return False
        return all(d <= self.heuristic_bound for _, _, d in self.pairs)

    def to_json_dict(self) -> dict:
        return {
            "pairs": [
                {"found": f, "reference": r, "distance": d}
                for f, r, d in self.pairs
            ],
            "spurious": list(self.spurious),
            "missed": list(self.missed),
            "heuristic_bound": self.heuristic_bound,
            "all_matched_within_bound": self.all_matched_within_bound,
        }


def _pair_distance(a: np.ndarray, b: np.ndarray, metric: str) -> float:
    if metric == "euclidean":
        return float(np.linalg.norm(a - b))
    if metric == "sign_euclidean":
        return min(
            float(np.linalg.norm(a - b)), float(np.linalg.norm(a + b))
        )
    if metric == "procrustes":
        return procrustes_distance(a, b)
    raise InvalidConfig(f"unknown metric {metric!r}")


def match_correspondence(
    found, reference, epsilon: float, eta: float, metric: str = "euclidean"
) -> CorrespondenceReport:
    """Pair each found point with its nearest reference, injectively.

    Candidate pairs are sorted by distance (ties broken by indices) and
    accepted greedily while both sides are unused, which realizes the
    mutual-nearest matching for separated references.
    """
    if eta <= 0.0 or epsilon < 0.0:
        raise InvalidConfig("need epsilon >= 0 and eta > 0 for the bound")
    found = [np.asarray(p, dtype=float) for p in found]
    reference = [np.asarray(p, dtype=float) for p in reference]
    candidates = sorted(
        (
            (_pair_distance(f, r, metric), fi, ri)
            for fi, f in enumerate(found)
            for ri, r in enumerate(reference)
        ),
    )
    used_found: set = set()
    used_ref: set = set()
    pairs = []
    for dist, fi, ri in candidates:
        if fi in used_found or ri in used_ref:
            continue
        used_found.add(fi)
        used_ref.add(ri)
        pairs.append((fi, ri, float(dist)))
    pairs.sort(key=lambda t: t[0])
    return CorrespondenceReport(
        pairs=tuple(pairs),
        spurious=tuple(i for i in range(len(found)) if i not in used_found),
        missed=tuple(i for i in range(len(reference)) if i not in used_ref),
        heuristic_bound=2.0 * epsilon / eta,
    )
