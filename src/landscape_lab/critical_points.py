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

import copy
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, GramNotSPD, InvalidConfig
from .manifold import _item_norms, _norm, procrustes_distance
from .risk_models import (
    MsEmpiricalRisk,
    PrEmpiricalRisk,
    SensingGroundTruth,
    _coerce,
    _signal_norm,
)
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
DEDUPE_BLOCK = 64  # converged seeds per block of dedupe distance rows

KIND_MIN = "LocalMin"
KIND_SADDLE = "StrictSaddle"
KIND_DEGENERATE = "Degenerate"


def _tau(model) -> float:
    """The gradient norm at which a search declares convergence."""
    return TAU_CRIT_FACTOR * (1.0 + model.value_scale)


def _eigh_2x2(hess: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues, ascending, and orthonormal eigenvectors of a (B, 2, 2)
    stack of symmetric matrices [[a, b], [b, c]], in closed form.

    The eigenvalues are mean -+ radius, with mean = (a + c) / 2,
    half = (a - c) / 2 and radius = hypot(half, b). The larger one's
    eigenvector is (half + radius, b), or (b, radius - half) where
    half < 0, so that nothing cancels; the smaller one's is its rotation by
    -90 degrees. An item with b = 0 and a = c takes the identity.
    """
    a, b, c = hess[:, 0, 0], hess[:, 1, 0], hess[:, 1, 1]
    # every sum is of halved terms, so that none overflows
    mean, half = 0.5 * a + 0.5 * c, 0.5 * a - 0.5 * c
    radius = np.hypot(half, b)
    below = half < 0.0
    x = np.where(below, 0.5 * b, 0.5 * half + 0.5 * radius)
    y = np.where(below, 0.5 * radius - 0.5 * half, 0.5 * b)
    # only b = 0, half = 0 gives (0, 0); (0, 1) makes the identity
    y[(x == 0.0) & (y == 0.0)] = 1.0
    norm = np.hypot(x, y)
    x /= norm
    y /= norm
    eigvecs = np.empty(hess.shape)
    eigvecs[:, 0, 0], eigvecs[:, 0, 1] = y, x
    eigvecs[:, 1, 0], eigvecs[:, 1, 1] = -x, y
    return np.stack([mean - radius, mean + radius], axis=-1), eigvecs


def _damped_newton_step(hess: np.ndarray, grad_flat: np.ndarray) -> np.ndarray:
    """Newton step that repels saddles: eigenvalues keep their sign but
    their magnitude is floored, so the step stays finite near degeneracy.

    Takes one (n, n) Hessian and (n,) gradient, or (B, n, n) and (B, n)
    stacks, each of whose steps equals its item's step on a stack of one bit
    for bit: one batched eigh, and a matrix-vector product per item. A
    (B, 2, 2) stack, whatever its size, is decomposed in closed form by
    _eigh_2x2 instead, without a LAPACK call; its steps agree with eigh's
    to rounding, not bit for bit. One Hessian always goes to eigh.
    """
    if hess.shape[1:] == (2, 2):
        eigvals, eigvecs = _eigh_2x2(hess)
    else:
        eigvals, eigvecs = np.linalg.eigh(hess)
    mags = np.abs(eigvals)
    floor = 1e-10 * np.maximum(mags.max(axis=-1, keepdims=True), 1e-30)
    signs = np.where(eigvals >= 0.0, 1.0, -1.0)
    damped = signs * np.maximum(mags, floor)
    coords = (eigvecs.swapaxes(-1, -2) @ grad_flat[..., None])[..., 0] / damped
    return (-eigvecs @ coords[..., None])[..., 0]


def _capped(step: np.ndarray, point: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shrink each step of a (B, *shape) stack to the cap
    0.5 * (1 + ||point||) if it is longer; returns the steps and the (B,)
    caps."""
    item_ndim = step.ndim - 1
    cap = 0.5 * (1.0 + _item_norms(point, item_ndim))
    step_norm = _item_norms(step, item_ndim)
    long = step_norm > cap
    # an unshrunk step is multiplied by exactly 1
    factor = np.ones_like(cap)
    factor[long] = cap[long] / step_norm[long]
    return step * factor.reshape(-1, *(1,) * item_ndim), cap


class _GramStack:
    """The normal operators of several surfaces, Gram ensembles or the
    population operators, applied to a stack of points whose items each lie
    on one surface.

    runs lists (operator, start, stop): the items start <= i < stop lie on
    that operator's surface, and the runs follow each other from 0 to the
    stack's size. normal hands each run to its operator's own normal, one
    product per run, so every item rounds as on its surface alone and no
    Gram matrix is gathered per item.
    """

    def __init__(self, runs: list, size: int):
        self.runs = runs
        self.size = size

    def normal(self, z: np.ndarray) -> np.ndarray:
        # a stack of points reaches the operator as (B, m, N, N)
        if z.ndim != 4 or len(z) != self.size:
            raise DimensionMismatch(
                f"a stack of {self.size} surface items needs as many points"
            )
        return np.concatenate([operator.normal(z[a:b]) for operator, a, b in self.runs])


def _surface_risk(models, per_surface: int, idx: np.ndarray):
    """The risk to evaluate on the items idx, an increasing index array, of
    a stack whose s-th block of per_surface items lies on models[s]'s
    surface.

    Items that all lie on one surface get that surface's model itself.
    Items of several surfaces get a shallow copy of the first empirical
    model (the first model, if all are population risks), so the tracer
    counts its calls under that class, whose operator is a _GramStack of
    the surfaces' operators: each item of euclidean_grad and hess_vec is
    then bit for bit the value on its own model.
    """
    if len(models) == 1:
        return models[0]
    cuts = idx.searchsorted(np.arange(len(models) + 1) * per_surface).tolist()
    runs = [(m, a, b) for m, a, b in zip(models, cuts, cuts[1:]) if a < b]
    if len(runs) < 2:
        return runs[0][0] if runs else models[0]
    first = next(
        (m for m in models if isinstance(m, (MsEmpiricalRisk, PrEmpiricalRisk))), models[0]
    )
    risk = copy.copy(first)
    risk.operator = _GramStack([(m.operator, a, b) for m, a, b in runs], len(idx))
    return risk


def _backtrack(risk_of, point, grad, grad_norm, step, polish):
    """Try point + step for each item of a (B, *shape) stack, halving the
    steps that fail, and keep each item's first candidate that passes.

    A Newton item passes when its gradient norm falls below grad_norm and
    gets MAX_BACKTRACKS tries; a polish item (polish True) passes below
    0.9 * grad_norm, or at an exact zero, and gets one try. Each try is one
    euclidean_grad call on the items still trying, through risk_of(trying),
    the risk of those items of point, and a passed item keeps the gradient
    that call computed, so the caller need not evaluate it again. Returns
    (point, grad, grad_norm, passed); an item that did not pass keeps its
    inputs.
    """
    point, grad, grad_norm = point.copy(), grad.copy(), grad_norm.copy()
    bar = np.where(polish, 0.9 * grad_norm, grad_norm)
    passed = np.zeros(len(point), dtype=bool)
    trying = np.arange(len(point))
    scale = 1.0
    for _ in range(MAX_BACKTRACKS):
        candidate = point[trying] + scale * step[trying]
        cand_grad = risk_of(trying).euclidean_grad(candidate)
        norm = _item_norms(cand_grad, step.ndim - 1)
        ok = (norm < bar[trying]) | (norm == 0.0)
        took = trying[ok]
        point[took], grad[took], grad_norm[took] = candidate[ok], cand_grad[ok], norm[ok]
        passed[took] = True
        trying = trying[~ok & ~polish[trying]]
        if not trying.size:
            break
        scale *= 0.5
    return point, grad, grad_norm, passed


def damped_newton(model, seed_point):
    """Drive the gradient to zero from one seed or a (B, *shape) stack.

    For one seed, returns (point, grad_norm, n_iter, converged).
    Convergence means the gradient norm dropped below
    1e-8 * (1 + value scale); afterwards a polish phase keeps stepping while
    the gradient still shrinks, which pushes through directions where the
    Hessian degenerates at the root. The gradient is evaluated once per
    point tried: an accepted point keeps the gradient its acceptance test
    computed.

    A stack runs every seed in lockstep, each with its own iterations,
    stalls, backtracking and phase, and each ends bit for bit where it
    would alone (a single seed is a stack of one). model may also be a
    non-empty list of risks of one risk form, equal c, target, shape and
    is_factor (else InvalidConfig): every seed then runs on every surface,
    tiled into a new stack whose s-th block lies on model[s]'s surface,
    and every surface searches in the same rounds, each seed still ending
    where it would on its own model. A round makes one
    dense_euclidean_hessian call and one decomposition of the Hessian stack
    of the seeds still active (a batched eigh, or at n = 2 _eigh_2x2's
    closed form), and one euclidean_grad call per backtrack halving over
    the seeds still halving, each on _surface_risk of those seeds. Every
    call but one seed on one model returns ((B, *shape) points, (B,)
    gradient norms, total Newton iterations, number of converged seeds),
    with B = len(model) * len(seeds) for a list: totals over the stack, so a
    caller that sums per-call iteration counts or counts converging calls
    reads a stack like a seed. A stack of no seeds returns empty arrays and
    zero totals without a model call. A seed converged iff its gradient
    norm is at most the tolerance, since polishing only accepts a smaller
    norm.
    """
    models = model if isinstance(model, list) else [model]
    if not models:
        raise InvalidConfig("a Newton search needs at least one surface")
    first = models[0]
    shape = first.shape
    if not all(
        (m.c, m.shape, m.is_factor) == (first.c, shape, first.is_factor)
        and np.array_equal(m.target, first.target)
        for m in models[1:]
    ):
        raise InvalidConfig(
            "stacked surfaces must be risks of one family (matrix sensing or "
            "phase retrieval), of one truth or signal and one shape"
        )
    seeds = _coerce(seed_point, shape, stack=True)
    single = seeds.shape == shape and len(models) == 1
    seeds = seeds.reshape(-1, *shape)
    # a new stack, the seeds once per surface, which the search updates in
    # place
    points = np.tile(seeds, (len(models), *(1,) * len(shape)))
    if not len(points):
        return points, np.empty(0), 0, 0

    def risk_of(items):
        return _surface_risk(models, len(seeds), items)

    tau = _tau(first)
    grad = risk_of(np.arange(len(points))).euclidean_grad(points)
    grad_norm = _item_norms(grad, len(shape))
    iters = np.zeros(len(points), dtype=int)
    stalls = np.zeros(len(points), dtype=int)
    polished = np.zeros(len(points), dtype=int)
    polish = np.zeros(len(points), dtype=bool)
    active = np.zeros(len(points), dtype=bool)
    newton = np.arange(len(points))  # every seed starts in the Newton phase
    while True:
        # a Newton seed searches on until MAX_STALLS failed backtracks in a
        # row, the iteration budget or convergence; a converged one polishes
        polish[newton] = grad_norm[newton] <= tau
        active[newton] = (
            (stalls[newton] < MAX_STALLS)
            & (iters[newton] < MAX_NEWTON_ITER)
            & (grad_norm[newton] > tau)
        ) | (polish[newton] & (MAX_POLISH_ITER > 0))
        if not active.any():
            break
        idx = np.flatnonzero(active)
        at, in_polish = points[idx], polish[idx]
        hess = dense_euclidean_hessian(risk_of(idx), at)
        step = _damped_newton_step(hess, grad[idx].reshape(len(idx), -1))
        step, _ = _capped(step.reshape(at.shape), at)
        points[idx], grad[idx], grad_norm[idx], passed = _backtrack(
            lambda trying: risk_of(idx[trying]), at, grad[idx], grad_norm[idx], step, in_polish
        )
        newton = idx[~in_polish]
        iters[newton] += 1
        stalls[newton] = np.where(passed[~in_polish], 0, stalls[newton] + 1)
        # a polishing seed stops at its first rejected step, at an exact
        # zero gradient or at the polish budget
        polishing = idx[in_polish]
        polished[polishing] += 1
        active[polishing] = (
            passed[in_polish]
            & (grad_norm[polishing] != 0.0)
            & (polished[polishing] < MAX_POLISH_ITER)
        )
    converged = grad_norm <= tau
    if single:
        return points[0], float(grad_norm[0]), int(iters[0]), bool(converged[0])
    return points, grad_norm, int(iters.sum()), int(converged.sum())


@dataclass(frozen=True)
class CriticalPointRecord:
    location: np.ndarray
    grad_norm: float
    lambda_min: float
    kind: str
    note: str = ""


@dataclass(frozen=True)
class CriticalSearchResult:
    records: tuple
    n_seeds: int
    n_converged: int
    n_failed: int
    dedupe_tol: float

    def of_kind(self, kind: str) -> list:
        return [r for r in self.records if r.kind == kind]


def _gauge_stack(cross: np.ndarray) -> np.ndarray:
    """manifold._gauge of each item of a (..., k, k) stack of finite cross
    matrices, bit for bit: the SVD's L R^T, and at k = 2 the same closed
    form in the same operations, on arrays."""
    if cross.shape[-2:] != (2, 2):
        left, _, right_t = np.linalg.svd(cross)
        return left @ right_t
    a, b, c, d = cross[..., 0, 0], cross[..., 0, 1], cross[..., 1, 0], cross[..., 1, 1]
    scale = 0.25 * abs(a) + 0.25 * abs(b) + 0.25 * abs(c) + 0.25 * abs(d)
    zero = scale == 0.0
    # M = 0 takes the identity, set below; (x, y) = (1, 0) keeps h nonzero
    scale[zero] = 1.0
    a, b, c, d = a / scale, b / scale, c / scale, d / scale
    rotation = a * d - b * c >= 0.0
    x = np.where(rotation, a + d, a - d)
    y = np.where(rotation, c - b, b + c)
    s = np.where(rotation, -1.0, 1.0)
    x[zero] = 1.0
    h = np.sqrt(x * x + y * y)
    x, y = x / h, y / h
    q = np.stack([x, s * y, y, -s * x], axis=-1).reshape(cross.shape)
    q[zero] = np.eye(2)
    return q


def _distance_rows(model, records: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """(R, C) distances from R record locations to C seeds, each bit for bit
    procrustes_distance(record, seed) when uses_quotient(model), else
    np.linalg.norm(record - seed); DEDUPE_BLOCK records at a time, so no
    temporary outgrows DEDUPE_BLOCK * C points. The gauge comes from
    _gauge_stack: at k = 2 in closed form, which agrees with the SVD's to
    rounding."""
    rows = np.empty((len(records), len(seeds)))
    for start in range(0, len(records), DEDUPE_BLOCK):
        u, v = records[start : start + DEDUPE_BLOCK, None], seeds[None]
        if uses_quotient(model):
            v = v @ _gauge_stack(np.swapaxes(v, -1, -2) @ u)
        rows[start : start + DEDUPE_BLOCK] = _item_norms(u - v, len(model.shape))
    return rows


def _dedupe(model, points: np.ndarray, grad_norms: np.ndarray, tol: float) -> list:
    """Each record's index into points: a point joins the first record within
    tol of it, and becomes its location if its gradient norm is smaller; a
    point near no record starts one. Per block of DEDUPE_BLOCK points,
    near[i, c] says whether record i is within tol of point c; the next point
    that starts or moves a record is read off its columns, and only that
    record's row is recomputed."""
    keep: list[int] = []
    for start in range(0, len(points), DEDUPE_BLOCK):
        block = points[start : start + DEDUPE_BLOCK]
        norms = grad_norms[start : start + DEDUPE_BLOCK]
        near = np.zeros((len(keep) + len(block), len(block)), dtype=bool)
        near[: len(keep)] = _distance_rows(model, points[keep], block) <= tol
        c = 0
        # the smaller gradient wins, not the first seed: at a degenerate
        # point the gradient grows only cubically along the null direction
        # (the ms2d_rank1 population origin, Hessian eigenvalues -2 and 0,
        # along (1, 1)), so a converged seed can stop micro-units away; the
        # first seed there kept a point 2.6e-6 from the origin with gradient
        # norm 1.7e-17, outside a 1e-6 match to the analytic point
        while c < len(block):
            # each point's first record, or len(keep), a new one, which wins
            first = np.where(near[:, c:].any(axis=0), near[:, c:].argmax(axis=0), len(keep))
            wins = np.flatnonzero(norms[c:] < np.append(grad_norms[keep], np.inf)[first])
            if not wins.size:
                break
            c, i = c + int(wins[0]), int(first[wins[0]])
            keep[i : i + 1] = [start + c]  # i == len(keep) appends
            c += 1
            near[i, c:] = _distance_rows(model, block[c - 1 : c], block[c:])[0] <= tol
    return keep


def _kind(lam: float, tau_eig: float) -> str:
    if lam > tau_eig:
        return KIND_MIN
    if lam < -tau_eig:
        return KIND_SADDLE
    return KIND_DEGENERATE


def _classify(model, point: np.ndarray):
    tau_eig = TAU_EIG_FACTOR * model.hessian_scale
    note = ""
    try:
        lam = min_eig(model, point)
    except GramNotSPD:
        # the quotient geometry breaks down at rank-deficient factors;
        # fall back to the ambient Hessian, which only widens the
        # negative spectrum
        lam = np.linalg.eigvalsh(dense_euclidean_hessian(model, point))[0]
        note = "rank-deficient factor, ambient curvature reported"
    return float(lam), _kind(lam, tau_eig), note


def _classify_stack(model, points: np.ndarray) -> list:
    """_classify for each point of a (R, *shape) stack, from one stacked
    min_eig call; if some factor is rank-deficient, each point goes through
    _classify alone, with its fallback."""
    if not len(points):
        return []
    try:
        lams = min_eig(model, points).tolist()
    except GramNotSPD:
        return [_classify(model, point) for point in points]
    tau_eig = TAU_EIG_FACTOR * model.hessian_scale
    return [(lam, _kind(lam, tau_eig), "") for lam in lams]


def find_critical_points(model, seed_points) -> CriticalSearchResult:
    """Run the damped Newton search from every seed and merge duplicates;
    the one-surface case of find_critical_points_each."""
    return find_critical_points_each([model], seed_points)[0]


def find_critical_points_each(models, seed_points) -> list:
    """find_critical_points on each model's surface from the same seeds, as
    one list of results, with one damped_newton call for all of them.

    seed_points is a sequence of points of the models' shape, such as a
    (B, *shape) array. Several models must share one risk form:
    damped_newton takes them as a list with the seeds once, runs every seed
    on every surface in the same Newton rounds, and each seed ends bit for
    bit where a search of its surface alone ends it. Per surface, the
    converged endpoints are deduplicated in seed order by distance rows
    (_dedupe), and the surviving records are classified with one stacked
    min_eig call, in record order. Seeds that fail to converge are
    counted, not fatal. Duplicates merge at 1e-4 times the domain scale,
    keeping the representative with the smaller gradient norm.
    """
    models = list(models)
    if not models:
        return []
    shape = models[0].shape
    dim = int(np.prod(shape))
    if dim > MAX_SEARCH_DIM:
        raise InvalidConfig(
            f"dense search supports at most {MAX_SEARCH_DIM} dimensions, "
            f"model has {dim}"
        )
    seeds = list(seed_points)
    n = len(seeds)
    shapes = {np.shape(seed) for seed in seeds}
    if shapes - {shape}:
        raise DimensionMismatch(
            f"seed shapes {sorted(shapes)} do not match model shape {shape}"
        )
    points, grad_norms, _, _ = damped_newton(models, np.reshape(seeds, (n, *shape)))
    results = []
    for s, model in enumerate(models):
        tol = TAU_DEDUPE_FACTOR * model.domain_scale
        ends, norms = points[s * n : (s + 1) * n], grad_norms[s * n : (s + 1) * n]
        converged = np.flatnonzero(norms <= _tau(model))
        ends, norms = ends[converged], norms[converged]
        keep = _dedupe(model, ends, norms, tol)
        found = [
            CriticalPointRecord(ends[i], float(norms[i]), *curvature)
            for i, curvature in zip(keep, _classify_stack(model, ends[keep]))
        ]
        results.append(
            CriticalSearchResult(
                records=tuple(found),
                n_seeds=n,
                n_converged=len(converged),
                n_failed=n - len(converged),
                dedupe_tol=tol,
            )
        )
    return results


def grid_seed_points(lo: float, hi: float, spacing: float, dim: int) -> np.ndarray:
    """Uniform grid seeds over [lo, hi]^dim, inclusive of both ends, as one
    (count**dim, dim) array in itertools.product's order: the last
    coordinate varies fastest."""
    if dim < 1:
        raise InvalidConfig(f"a seed grid needs dimension at least one, not {dim}")
    if not (hi > lo and spacing > 0.0 and math.isfinite((hi - lo) / spacing)):
        raise InvalidConfig("grid needs hi > lo, positive spacing and a finite step count")
    count = int(round((hi - lo) / spacing)) + 1
    # checked before the axis is built: a wide span would not fit in memory
    if dim * math.log(count) > math.log(MAX_GRID_POINTS):
        raise InvalidConfig("grid would exceed a million seeds")
    axis = np.linspace(lo, hi, count)
    return np.array(list(itertools.product(axis, repeat=dim)))


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
    tau = _tau(model)
    grad = model.euclidean_grad(point)
    grad_norm = _norm(grad)
    for _ in range(MAX_NEWTON_ITER):
        if grad_norm <= tau:
            break
        hess, mats = restricted_hessian(model, point)
        flat = mats.reshape(len(mats), -1)
        coeffs = _damped_newton_step(hess, flat @ grad.ravel())
        # the stacked helpers, on a stack of this one point
        step, cap = _capped((coeffs @ flat).reshape(1, *point.shape), point[None])
        points, grads, norms, passed = _backtrack(
            lambda _: model, point[None], grad[None], np.array([grad_norm]), step, np.zeros(1, bool)
        )
        point, grad, grad_norm = points[0], grads[0], float(norms[0])
        if not passed[0]:
            # Newton stalled; a value-decreasing gradient step keeps the
            # refinement moving through nearly flat valleys where the
            # Newton direction loses to its own small eigenvalues.
            value = model.value(point)
            scale = float(cap[0]) / max(grad_norm, 1e-30)
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
    a whole sphere and the returned saddles are representatives only. The
    signal is rejected as the phase risks reject it.
    """
    xstar, norm_star = _signal_norm(signal)
    dim = xstar.shape[0]
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
    if a.shape != b.shape:
        raise DimensionMismatch(f"a {a.shape} point cannot be matched to a {b.shape} one")
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
    if not (math.isfinite(epsilon) and math.isfinite(eta) and epsilon >= 0.0 and eta > 0.0):
        raise InvalidConfig("need finite epsilon >= 0 and eta > 0 for the bound")
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
