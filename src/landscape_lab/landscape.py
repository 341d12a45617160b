"""Region classification and sampled verification of landscape guarantees.

The population risks admit a covering of their domains by regions on which
one of three things holds: strong convexity of the restricted Hessian, a
negative curvature direction, or a large gradient. ms_region_bounds and
pr_region_bounds tabulate those bounds; this module classifies points
into the regions, samples each region and verifies its tabled bound,
estimates how far an empirical risk sits from its population counterpart
over a ball, and measures restricted-isometry constants of sensing
ensembles. Sample counts and seeds are plain arguments with no default; a
threshold left None is read from default_thresholds, the one place that
derives epsilon, eta and the ball radius from the tabled bounds.

All sampled checks report Monte-Carlo evidence: a clean run certifies the
sampled points only, never the full region.

Every random point, of the region samplers, the assumption ball and the
RIP probes, comes from one loop, _draws: it reads uniforms BLOCK rows at a
time, or as many as are still wanted if fewer, so the stream is read
exactly as by one rng call per draw, and builds each block into a stack of
proposals in one pass, each bit for bit the proposal built from its row
alone. No proposal is built that is not read. The region samplers accept a
proposal by one classify_region_* call of its own, in order. Each call
validates its point once and computes each witness value once; what
depends on the truth alone (the canonical minimum, the region thresholds
and the notes) the truth computes on first use and keeps. The points are
then checked in stacks of at most BLOCK, one population-risk, energy or
min_eig call per stack; curvature is read from eigvalsh, eigenvalues only.
Each value is bit for bit the single-point one, so no report depends on
BLOCK.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import rng
from .errors import (
    InvalidConfig,
    InvalidRank,
    InvalidSampleCount,
    NonFiniteEntry,
    SamplerStarved,
)
from .manifold import _item_norms, _norm, _procrustes
from .risk_models import (
    MsPopulationRisk,
    PrPopulationRisk,
    SensingEnsemble,
    SensingGroundTruth,
    _coerce,
    _phase_signal,
    _signal_norm,
)
from .spectral import hessian_form, min_eig

MS_R1 = "MS_R1"
MS_R2P = "MS_R2p"
MS_R2PP = "MS_R2pp"
MS_R3P = "MS_R3p"
MS_R3PP = "MS_R3pp"
MS_REGIONS = (MS_R1, MS_R2P, MS_R2PP, MS_R3P, MS_R3PP)

PR_R1 = "PR_R1"
PR_R2 = "PR_R2"
PR_R3 = "PR_R3"
PR_R4 = "PR_R4"
PR_REGIONS = (PR_R1, PR_R2, PR_R3, PR_R4)

# region geometry, in units of the truth scales
MS_R1_RADIUS_FACTOR = 0.2          # times kappa^{-1} sqrt(lambda_k)
MS_SIGMA_CAP_FACTOR = 0.5          # times sqrt(lambda_k)
MS_BALL_CAP_FACTOR = 8.0 / 7.0     # times ||U* U*^T||_F, cap on ||U U^T||_F
MS_GRAD_SPLIT_FACTOR = 1.0 / 80.0  # times lambda_k^{3/2}

PR_R1_RADIUS_FACTOR = 0.5
PR_R2_RADIUS_FACTOR = 0.1
PR_R3_RADIUS_FACTOR = 0.2

# verified bounds, same units
MS_R1_CURVATURE_FLOOR = 0.19       # times lambda_k
MS_R2P_CURVATURE_CEIL = -0.06      # times lambda_k
MS_R3P_GRAD_FLOOR = 1.0 / 60.0     # times kappa^{-1} lambda_k^{3/2}
MS_R3PP_GRAD_FLOOR = 5.0 / 84.0    # times k^{1/4} lambda_k^{3/2}

PR_R1_CURVATURE_CEIL = -1.5        # times ||x*||^2
PR_R2_CURVATURE_FLOOR = 0.22
PR_R3_CURVATURE_CEIL = -0.78
PR_R4_GRAD_FLOOR = 0.3963          # times ||x*||^3

# the kind of bound a region carries: a floor or a ceiling on the smallest
# tangent-space Hessian eigenvalue, or a floor on the gradient norm
CURVATURE_FLOOR = "curvature_floor"
CURVATURE_CEILING = "curvature_ceiling"
GRADIENT_FLOOR = "gradient_floor"


@dataclass(frozen=True)
class RegionLabelSet:
    """Labels of every region containing a point, with witness scalars.

    Regions deliberately overlap near their boundaries, so this is a set.
    notes carries advisories (for instance a truth whose spectrum violates
    the separation condition).
    """

    labels: frozenset
    witness: dict
    notes: tuple = ()


def ms_region_thresholds(truth: SensingGroundTruth) -> dict:
    lam_k = float(truth.eigvals[truth.target_rank - 1])
    top_norm = _norm(truth.eigvals[: truth.target_rank])
    return {
        "r1_radius": MS_R1_RADIUS_FACTOR / truth.kappa * math.sqrt(lam_k),
        "sigma_cap": MS_SIGMA_CAP_FACTOR * math.sqrt(lam_k),
        "ball_cap": MS_BALL_CAP_FACTOR * top_norm,
        "grad_split": MS_GRAD_SPLIT_FACTOR * lam_k ** 1.5,
    }


def ms_region_bounds(truth: SensingGroundTruth) -> dict:
    """Region -> (kind, value) of the bound each matrix-sensing region
    carries, in MS_REGIONS order."""
    k = truth.target_rank
    lam_k = float(truth.eigvals[k - 1])
    scale = lam_k ** 1.5
    return {
        MS_R1: (CURVATURE_FLOOR, MS_R1_CURVATURE_FLOOR * lam_k),
        MS_R2P: (CURVATURE_CEILING, MS_R2P_CURVATURE_CEIL * lam_k),
        MS_R2PP: (GRADIENT_FLOOR, MS_GRAD_SPLIT_FACTOR * scale),
        MS_R3P: (GRADIENT_FLOOR, MS_R3P_GRAD_FLOOR / truth.kappa * scale),
        MS_R3PP: (GRADIENT_FLOOR, MS_R3PP_GRAD_FLOOR * k ** 0.25 * scale),
    }


def _truth_notes(truth: SensingGroundTruth) -> tuple:
    notes = []
    if not truth.well_separated:
        notes.append(
            "spectrum separation fails: the discarded tail exceeds one "
            "twelfth of the smallest kept eigenvalue"
        )
    if truth.boundary_multiplicity != "clean":
        notes.append(
            "repeated eigenvalues extend the minima beyond one gauge orbit; "
            "distances are measured to the canonical orbit only"
        )
    return tuple(notes)


def _ms_truth_constants(truth: SensingGroundTruth) -> tuple:
    """(ms_region_thresholds, _truth_notes) of the truth, computed on its
    first classification and kept with it."""
    derived = truth._derived
    if "ms_regions" not in derived:
        derived["ms_regions"] = ms_region_thresholds(truth), _truth_notes(truth)
    return derived["ms_regions"]


def classify_region_ms(truth: SensingGroundTruth, point) -> RegionLabelSet:
    """All matrix-sensing regions containing the factor point.

    Distance to the minima is measured as the Procrustes distance to the
    canonical minimum; Procrustes absorbs the gauge orbit, and spectra
    whose minima extend beyond one orbit are flagged advisory rather than
    resolved. The witness's gradient is the population one, (UU^T - X) U,
    from the same UU^T as its norm. At k = 2, sigma_k and the Procrustes
    gauge are in closed form (_sigma_k, manifold._gauge), and agree with
    the SVD's to rounding.
    """
    thresholds, notes = _ms_truth_constants(truth)
    minimum = truth.canonical_minimum()
    u = _coerce(point, minimum.shape)
    sigma_k = _sigma_k(u)
    uut = u @ u.T
    uut_norm = _norm(uut)
    grad_norm = _norm((uut - truth.matrix) @ u)
    distance = _procrustes(u, minimum)[0]

    labels = set()
    if distance <= thresholds["r1_radius"]:
        labels.add(MS_R1)
    in_ball = uut_norm <= thresholds["ball_cap"]
    if sigma_k <= thresholds["sigma_cap"] and in_ball:
        if grad_norm <= thresholds["grad_split"]:
            labels.add(MS_R2P)
        else:
            labels.add(MS_R2PP)
    if (
        sigma_k > thresholds["sigma_cap"]
        and distance > thresholds["r1_radius"]
        and in_ball
    ):
        labels.add(MS_R3P)
    if uut_norm > thresholds["ball_cap"]:
        labels.add(MS_R3PP)

    witness = {
        "sigma_k": sigma_k,
        "uut_norm": uut_norm,
        "grad_norm": grad_norm,
        "minimum_distance": distance,
        **thresholds,
    }
    return RegionLabelSet(frozenset(labels), witness, notes)


def _sigma_k(u: np.ndarray) -> float:
    """The smallest singular value of an N x k factor: the SVD's, and at
    k = 2 in closed form. There U = [u1 u2] = QR by one Gram-Schmidt step,
    r11 = ||u1||, r12 = u1.u2 / r11, r22 = ||u2 - (r12 / r11) u1||, and
    sigma_min = r11 r22 / sigma_max, with sigma_max that of the triangle R."""
    if u.shape[1] != 2:
        return float(np.linalg.svd(u, compute_uv=False)[-1])
    u1, u2 = u.T
    r11 = math.sqrt(u1.dot(u1))
    if r11 == 0.0:
        return 0.0
    r12 = float(u1.dot(u2)) / r11
    w = u2 - (r12 / r11) * u1
    r22 = math.sqrt(w.dot(w))
    sigma_max = 0.5 * math.hypot(r11 + r22, r12) + 0.5 * math.hypot(r11 - r22, r12)
    return r11 * r22 / sigma_max


def saddle_sphere_distance(signal, x) -> float:
    """Distance from x to the saddle set, the sphere of radius
    ||x*|| / sqrt(3) inside the hyperplane orthogonal to the signal.
    Empty in dimension one, where the distance is infinite. The signal is
    rejected as the phase risks reject it, and x must be finite and of its
    shape."""
    xstar, norm_star = _signal_norm(signal)
    return _saddle_distance(xstar, norm_star, _coerce(x, xstar.shape))


def _saddle_distance(xstar, norm_star, x) -> float:
    # saddle_sphere_distance on a validated signal, its norm and point
    if xstar.shape[0] < 2:
        return math.inf
    radius = norm_star / math.sqrt(3.0)
    along = float(x @ xstar) / norm_star
    perp = x - (along / norm_star) * xstar
    return math.hypot(along, _norm(perp) - radius)


def pr_region_bounds(signal) -> dict:
    """Region -> (kind, value) of the bound each phase-retrieval region
    carries, in PR_REGIONS order."""
    xstar = _phase_signal(signal)
    n2 = float(xstar @ xstar)
    return {
        PR_R1: (CURVATURE_CEILING, PR_R1_CURVATURE_CEIL * n2),
        PR_R2: (CURVATURE_FLOOR, PR_R2_CURVATURE_FLOOR * n2),
        PR_R3: (CURVATURE_CEILING, PR_R3_CURVATURE_CEIL * n2),
        PR_R4: (GRADIENT_FLOOR, PR_R4_GRAD_FLOOR * n2 ** 1.5),
    }


def default_thresholds(instance) -> tuple:
    """(epsilon, eta, ball_radius) of a SensingGroundTruth or a phase signal.

    Matrix sensing: the smallest gradient floor, the depth of the swap
    saddles' curvature ceiling (R2') and the R3'' cap. Phase retrieval: the
    far-field gradient floor (R4), the curvature floor around the minima
    (R2) and 1.1 ||x*||; the signal is rejected as the phase risks reject it.
    """
    if isinstance(instance, SensingGroundTruth):
        bounds = ms_region_bounds(instance)
        return (
            min(v for kind, v in bounds.values() if kind == GRADIENT_FLOOR),
            -bounds[MS_R2P][1],
            _ms_truth_constants(instance)[0]["ball_cap"],
        )
    xstar = _phase_signal(instance)
    bounds = pr_region_bounds(xstar)
    return bounds[PR_R4][1], bounds[PR_R2][1], 1.1 * float(np.linalg.norm(xstar))


def classify_region_pr(signal, point) -> RegionLabelSet:
    """All phase-retrieval regions containing the point."""
    xstar, norm_star = _signal_norm(signal)
    x = _coerce(point, xstar.shape)
    norm_x = _norm(x)
    sign_dist = min(_norm(x - xstar), _norm(x + xstar))
    saddle_dist = _saddle_distance(xstar, norm_star, x)

    labels = set()
    if norm_x <= PR_R1_RADIUS_FACTOR * norm_star:
        labels.add(PR_R1)
    if sign_dist <= PR_R2_RADIUS_FACTOR * norm_star:
        labels.add(PR_R2)
    if saddle_dist <= PR_R3_RADIUS_FACTOR * norm_star:
        labels.add(PR_R3)
    if not labels:
        labels.add(PR_R4)

    witness = {
        "norm_x": norm_x,
        "sign_distance": sign_dist,
        "saddle_distance": saddle_dist,
        "r1_radius": PR_R1_RADIUS_FACTOR * norm_star,
        "r2_radius": PR_R2_RADIUS_FACTOR * norm_star,
        "r3_radius": PR_R3_RADIUS_FACTOR * norm_star,
    }
    return RegionLabelSet(frozenset(labels), witness)


# ---------------------------------------------------------------------------
# the draw loop and the region samplers
# ---------------------------------------------------------------------------


# starvation declared below 0.1% proposal acceptance
ATTEMPT_FACTOR = 1000
# proposals per block of uniforms, and samples per stacked region check
BLOCK = 64


def _unit_rows(g):
    """Each row of g divided by its norm, which _item_norms rounds as
    np.linalg.norm rounds that row alone."""
    return g / _item_norms(g, 1)[:, None]


def _draws(propose, width, accept, n, gen, what):
    """Yield n accepted proposals, as one (B, *shape) stack per block that
    keeps any.

    Rows of width uniforms are drawn from gen BLOCK at a time, or fewer:
    never more than are still wanted (n less those kept) or left in the
    starvation budget. propose(rows) builds the block's stack, and
    accept(stack) is read through, one proposal at a time, in order. Every
    proposal built is so read and counted, the n-th kept is the last, and
    gen is left where one rng.uniform call per proposal read would leave it.
    An n below one raises InvalidSampleCount, naming what, on the first
    next, before gen is read.
    """
    if n < 1:
        raise InvalidSampleCount(f"{what}: need at least one sample, got {n}")
    budget = max(n * ATTEMPT_FACTOR, 1000)
    kept = attempts = 0
    while kept < n:
        if attempts >= budget:
            raise SamplerStarved(f"{what}: {kept} of {n} samples after {attempts} proposals")
        stack = propose(rng.uniform(gen, (min(BLOCK, n - kept, budget - attempts), width)))
        keep = [i for i, ok in enumerate(accept(stack)) if ok]
        attempts += len(stack)
        kept += len(keep)
        if keep:
            yield stack[keep]


def _accept_all(stack):
    return itertools.repeat(True, len(stack))


def _full_rank(stack):
    """Accept factors with sigma_min > 1e-12 sigma_max, from one stacked svd;
    relative, as an absolute floor would reject all in a small enough ball."""
    sigma = np.linalg.svd(stack, compute_uv=False)
    return sigma[:, -1] > 1e-12 * sigma[:, 0]


def _region_samples(propose, width, classify, instance, region, n, gen):
    """The first n proposals whose classify(instance, .) labels hold the
    region, as an (n, *shape) array, from one classify call per proposal."""

    def accept(stack):
        return (region in classify(instance, p).labels for p in stack)

    return np.concatenate(list(_draws(propose, width, accept, n, gen, f"region {region}")))


def _factor_ball(n, k, cap, shell):
    """(propose, width) of (n, k) Gaussian factors G scaled to ||G G^T||_F =
    cap u, or cap (1 + 3u) on the shell, from rows of u then n k Gaussian
    entries; each item is scaled to its own target."""

    def propose(rows):
        scale = 1.0 + 3.0 * rows[:, 0] if shell else rows[:, 0]
        g = rng.gaussian(rows[:, 1:]).reshape(-1, n, k)
        gram_norms = _item_norms(g @ np.swapaxes(g, 1, 2), 2)
        return g * np.sqrt(cap * scale / gram_norms)[:, None, None]

    return propose, 1 + n * k


def _vector_ball(dim, radius):
    """(propose, width) of points radius u^{1/dim} w, uniform in the ball,
    from rows of u then dim Gaussian entries of the direction w."""

    def propose(rows):
        # the root by Python's pow, row by row: numpy's vectorised power
        # rounds differently on some hosts
        roots = np.array([u ** (1.0 / dim) for u in rows[:, 0].tolist()])
        return (radius * roots)[:, None] * _unit_rows(rng.gaussian(rows[:, 1:]))

    return propose, 1 + dim


def sample_region_ms(truth: SensingGroundTruth, region: str, n: int, gen) -> np.ndarray:
    """Draw n factor points whose label set contains the region, (n, N, k).

    A proposal reads one row of uniforms: N k Gaussian entries then a radius
    (MS_R1, MS_R2p), or a scale then N k Gaussian entries (the factor ball,
    for the others). gen may be advanced past the last accepted proposal.
    """
    thresholds = _ms_truth_constants(truth)[0]
    n_dim, k = truth.dim, truth.target_rank
    nk = n_dim * k

    if region == MS_R1:
        anchors = truth.canonical_minimum()[None]
        radius = thresholds["r1_radius"]

    elif region == MS_R2P:
        # the first k-subset, in lexicographic order, is the minimum itself
        selections = list(itertools.combinations(range(truth.rank), k))[1:]
        if not selections:
            raise SamplerStarved(
                f"region {region}: no swap saddles exist at full target rank"
            )
        # keep the perturbation small enough that the gradient stays under
        # the split threshold; the local gradient growth rate is of order
        # the top curvature scale
        rate = 4.0 * (
            3.0 * float(truth.eigvals[0]) + float(np.linalg.norm(truth.matrix))
        )
        radius = thresholds["grad_split"] / rate
        anchors = np.stack([truth.canonical_point(s) for s in selections])

    if region in (MS_R1, MS_R2P):
        # proposal i perturbs anchor i mod len(anchors)
        cycle = itertools.cycle(range(len(anchors)))

        def propose(rows):
            picked = anchors[list(itertools.islice(cycle, len(rows)))]
            directions = _unit_rows(rng.gaussian(rows[:, :nk])).reshape(-1, n_dim, k)
            return picked + (radius * rows[:, nk])[:, None, None] * directions

        width = nk + 1

    elif region in (MS_R2PP, MS_R3P, MS_R3PP):
        # ||U U^T||_F uniform on (0, cap), or on (cap, 4 cap) for MS_R3pp
        cap = thresholds["ball_cap"]
        propose, width = _factor_ball(n_dim, k, cap, shell=region == MS_R3PP)

    else:
        raise InvalidConfig(f"unknown matrix-sensing region {region!r}")

    return _region_samples(propose, width, classify_region_ms, truth, region, n, gen)


def sample_region_pr(signal, region: str, n: int, gen) -> np.ndarray:
    """Draw n vectors whose label set contains the region, (n, N).

    A proposal reads one row of uniforms: a radius then N for a direction
    (PR_R1, and the vector ball of PR_R4); a sign, a radius and N (PR_R2);
    N for the saddle direction, a radius and N (PR_R3). gen may be advanced
    past the last accepted proposal.
    """
    xstar = _phase_signal(signal)
    norm_star = _norm(xstar)
    dim = xstar.shape[0]

    if region == PR_R1:

        def propose(rows):
            radii = PR_R1_RADIUS_FACTOR * norm_star * rows[:, 0]
            return radii[:, None] * _unit_rows(rng.gaussian(rows[:, 1:]))

        width = 1 + dim

    elif region == PR_R2:

        def propose(rows):
            signs = np.where(rows[:, 0] < 0.5, 1.0, -1.0)
            radii = PR_R2_RADIUS_FACTOR * norm_star * rows[:, 1]
            offsets = radii[:, None] * _unit_rows(rng.gaussian(rows[:, 2:]))
            return signs[:, None] * xstar + offsets

        width = 2 + dim

    elif region == PR_R3:
        if dim < 2:
            raise SamplerStarved(
                f"region {region}: the saddle sphere is empty in dimension one"
            )

        def propose(rows):
            # the radius column is mapped too, and not read
            gauss = rng.gaussian(rows)
            raw = gauss[:, :dim]
            # row times column, as raw @ xstar rounds for one row
            along = (raw[:, None, :] @ xstar[:, None])[:, 0, 0]
            raw -= (along / norm_star ** 2)[:, None] * xstar
            radii = PR_R3_RADIUS_FACTOR * norm_star * rows[:, dim]
            offsets = radii[:, None] * _unit_rows(gauss[:, dim + 1:])
            return (norm_star / math.sqrt(3.0)) * _unit_rows(raw) + offsets

        width = 2 * dim + 1

    elif region == PR_R4:
        propose, width = _vector_ball(dim, 1.5 * norm_star)

    else:
        raise InvalidConfig(f"unknown phase-retrieval region {region!r}")

    return _region_samples(propose, width, classify_region_pr, xstar, region, n, gen)


# ---------------------------------------------------------------------------
# sampled bound verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegionCheck:
    """Result of one region's sampled bound: worst margin and violations.

    margin is the verified quantity minus its bound, oriented so that
    nonnegative means the bound holds; worst_margin is the minimum over
    the samples. A skipped region has no samples: its worst_margin is nan
    and is written as null.
    """

    region: str
    bound_kind: str
    bound_value: float
    requested: int
    n_sampled: int
    n_violations: int
    worst_margin: float
    skipped: bool = False
    note: str = ""

    def to_json_dict(self) -> dict:
        worst = None if self.skipped else self.worst_margin
        return {**asdict(self), "worst_margin": worst}


@dataclass(frozen=True)
class RegionBoundReport:
    """The region checks of one family. notes carries the truth's advisories
    (matrix sensing, as classify_region_ms notes them); JSON holds them only
    when there are some."""

    family: str
    n_per_region: int
    seed: int
    checks: tuple
    violations: tuple = ()
    notes: tuple = ()

    @property
    def all_clear(self) -> bool:
        return all(c.n_violations == 0 for c in self.checks)

    def check(self, region: str) -> RegionCheck:
        for c in self.checks:
            if c.region == region:
                return c
        raise KeyError(region)

    def to_json_dict(self) -> dict:
        payload = {
            **asdict(self),
            "all_clear": self.all_clear,
            "checks": [c.to_json_dict() for c in self.checks],
        }
        if not self.notes:
            del payload["notes"]
        return payload


def _check_values(model, kind, stack):
    """The checked quantity at each point of a stack, from one call: the
    Euclidean gradient norm for a gradient floor, else min_eig. Each equals
    the value at that point alone, bit for bit."""
    if kind == GRADIENT_FLOOR:
        return _item_norms(model.euclidean_grad(stack), len(model.shape))
    return min_eig(model, stack)


def _run_region_checks(family, model, bounds, sample, n_per_region, seed, notes=()):
    """Check each tabled bound on n_per_region samples of its region: min_eig
    against a curvature bound, the Euclidean gradient norm against a gradient
    floor. The samples are checked in stacks of BLOCK, one population-risk
    call per stack. The report carries notes."""
    checks = []
    violations = []
    for region, (kind, bound) in bounds.items():
        # the skipped and the sampled check differ only in what was sampled
        check = functools.partial(
            RegionCheck, region=region, bound_kind=kind, bound_value=bound, requested=n_per_region
        )
        gen = rng.stream(seed, f"regions-{family}/{region}", 0)
        try:
            samples = sample(region, n_per_region, gen)
        except SamplerStarved as starved:
            checks.append(
                check(
                    n_sampled=0,
                    n_violations=0,
                    worst_margin=math.nan,
                    skipped=True,
                    note=str(starved),
                )
            )
            continue
        stacks = (samples[i : i + BLOCK] for i in range(0, len(samples), BLOCK))
        vals = np.concatenate([_check_values(model, kind, s) for s in stacks])
        margins = bound - vals if kind == CURVATURE_CEILING else vals - bound
        worst = int(np.argmin(margins))
        bad = np.flatnonzero(margins < 0.0)
        for i in bad:
            violations.append(
                {
                    "region": region,
                    "margin": float(margins[i]),
                    "point_row_major": samples[i].ravel().tolist(),
                }
            )
        checks.append(
            check(n_sampled=len(samples), n_violations=len(bad), worst_margin=float(margins[worst]))
        )
    return RegionBoundReport(
        family=family,
        n_per_region=n_per_region,
        seed=seed,
        checks=tuple(checks),
        violations=tuple(violations),
        notes=notes,
    )


def verify_region_bounds_ms(
    truth: SensingGroundTruth, n_per_region: int, seed: int
) -> RegionBoundReport:
    """Sample every matrix-sensing region and verify its curvature or
    gradient bound on each sample; the report carries the truth's notes."""
    return _run_region_checks(
        "ms",
        MsPopulationRisk(truth),
        ms_region_bounds(truth),
        lambda region, n, gen: sample_region_ms(truth, region, n, gen),
        n_per_region,
        seed,
        _ms_truth_constants(truth)[1],
    )


def verify_region_bounds_pr(signal, n_per_region: int, seed: int) -> RegionBoundReport:
    """Sample every phase-retrieval region and verify its bound."""
    xstar = np.asarray(signal, dtype=float)
    return _run_region_checks(
        "pr",
        PrPopulationRisk(xstar),
        pr_region_bounds(xstar),
        lambda region, n, gen: sample_region_pr(xstar, region, n, gen),
        n_per_region,
        seed,
    )


# ---------------------------------------------------------------------------
# proximity of empirical to population risk over a ball
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AssumptionReport:
    """Monte-Carlo proximity estimates and margin audit.

    sup_grad_diff_est and sup_hess_diff_est are maxima over the sampled
    points and therefore lower bounds of the true suprema over the ball.
    saddle_margin_violations lists sampled small-gradient points where the
    population Hessian sits inside the open margin (-eta, eta), which would
    break the minimum-vs-saddle dichotomy.
    """

    epsilon: float
    eta: float
    ball_radius: float
    n_samples: int
    seed: int
    sup_grad_diff_est: float
    sup_hess_diff_est: float
    small_gradient_count: int
    saddle_margin_violations: tuple
    verdicts: dict
    caveat: str = "Monte-Carlo lower bound of supremum"

    @property
    def overall_pass(self) -> bool:
        return all(v == "PASS" for v in self.verdicts.values())

    def to_json_dict(self) -> dict:
        return {**asdict(self), "overall_pass": self.overall_pass}


def _thresholds(instance, *given) -> tuple:
    """given, in default_thresholds order, each None read from the instance."""
    return tuple(d if v is None else v for v, d in zip(given, default_thresholds(instance)))


def check_assumptions(
    population, empirical, n_samples, seed, epsilon=None, eta=None, ball_radius=None
) -> AssumptionReport:
    """Estimate the gradient and Hessian deviation of an empirical risk from
    its population risk over a ball, and audit the population risk's own
    saddle margin at sampled small-gradient points.

    epsilon bounds the gradient deviation, eta the Hessian deviation in
    operator norm, ball_radius the sampling ball: ||x|| <= l for vectors,
    ||U U^T||_F <= l for factors. A threshold left None is read from
    default_thresholds of the population's truth or signal. n_samples ball
    points, from the factor or vector ball of the region samplers, are drawn
    and checked a block at a time: one euclidean_grad and hessian_form call
    per model, one batched eigvalsh of the Hessian difference for its
    operator norm, and min_eig of the small-gradient points from one
    eigvalsh of the same population forms, as spectral.min_eig reads it. A
    nan deviation, where the risks overflow, raises NonFiniteEntry."""
    instance = population.truth if population.is_factor else population.signal
    epsilon, eta, ball_radius = _thresholds(instance, epsilon, eta, ball_radius)
    if not all(math.isfinite(v) and v > 0.0 for v in (epsilon, eta, ball_radius)):
        raise InvalidConfig("epsilon, eta, and ball_radius must all be finite and positive")
    if population.shape != empirical.shape:
        raise InvalidConfig("population and empirical models disagree on shape")
    if population.is_factor:
        ball, accept = _factor_ball(*population.shape, ball_radius, shell=False), _full_rank
    else:
        ball, accept = _vector_ball(population.shape[0], ball_radius), _accept_all
    gen = rng.stream(seed, "assumption-ball", 0)
    item_ndim = len(population.shape)
    sup_grad = 0.0
    sup_hess = 0.0
    small_grad = 0
    violations = []
    for points in _draws(*ball, accept, n_samples, gen, "assumption ball"):
        grad_pop = population.euclidean_grad(points)
        grad_diffs = _item_norms(empirical.euclidean_grad(points) - grad_pop, item_ndim)
        form_pop = hessian_form(population, points)
        diff_eigs = np.linalg.eigvalsh(hessian_form(empirical, points) - form_pop)
        hess_diffs = abs(diff_eigs[:, [0, -1]]).max(axis=1)
        # Python's max passes over nan, so a nan would read as a clean point
        if np.isnan(grad_diffs).any() or np.isnan(hess_diffs).any():
            raise NonFiniteEntry(
                f"a gradient or Hessian deviation is nan on the ball of radius "
                f"{ball_radius!r}: the risks overflow there"
            )
        sup_grad = max(sup_grad, *grad_diffs.tolist())
        sup_hess = max(sup_hess, *hess_diffs.tolist())
        grad_norms = _item_norms(grad_pop, item_ndim)
        small = np.flatnonzero(grad_norms <= epsilon)
        small_grad += len(small)
        # min_eig of the population form, at the small-gradient points only
        lams = np.linalg.eigvalsh(form_pop[small])[:, 0]
        for i, lam in zip(small, lams.tolist()):
            if abs(lam) < eta:
                violations.append(
                    {
                        "point_row_major": points[i].ravel().tolist(),
                        "lambda_min": lam,
                        "grad_norm": float(grad_norms[i]),
                    }
                )
    verdicts = {
        "gradient_proximity": "PASS" if sup_grad <= epsilon / 2.0 else "FAIL",
        "hessian_proximity": "PASS" if sup_hess <= eta / 2.0 else "FAIL",
        "eigenvalue_margin": "PASS" if not violations else "FAIL",
    }
    return AssumptionReport(
        epsilon=epsilon,
        eta=eta,
        ball_radius=ball_radius,
        n_samples=n_samples,
        seed=seed,
        sup_grad_diff_est=sup_grad,
        sup_hess_diff_est=sup_hess,
        small_gradient_count=small_grad,
        saddle_margin_violations=tuple(violations),
        verdicts=verdicts,
    )


# ---------------------------------------------------------------------------
# restricted isometry estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RipReport:
    """Sampled restricted-isometry constant of a sensing ensemble.

    delta_est is max over probes of | ||A(Z)||^2 - 1 | for unit-Frobenius
    probes of rank at most rank_bound; a Monte-Carlo lower bound of the true
    constant. delta_threshold is the admissible level below which the
    proximity guarantees kick in for the supplied epsilon and eta.
    """

    rank_bound: int
    n_probes: int
    seed: int
    delta_est: float
    delta_threshold: float
    epsilon: float
    eta: float

    @property
    def within_threshold(self) -> bool:
        return self.delta_est <= self.delta_threshold

    def to_json_dict(self) -> dict:
        return {**asdict(self), "within_threshold": self.within_threshold}


def rip_delta_threshold(truth: SensingGroundTruth, epsilon: float, eta: float) -> float:
    """Largest admissible isometry defect for the proximity guarantees.

    Three requirements meet here: the gradient deviation stays under
    epsilon/2, the constant 1/36 keeps the far-field gradient floor
    positive, and the Hessian deviation stays under eta/2.
    """
    if not all(math.isfinite(v) and v > 0.0 for v in (epsilon, eta)):
        raise InvalidConfig("epsilon and eta must be finite and positive")
    k = truth.target_rank
    top_norm = float(np.linalg.norm(truth.eigvals[:k]))
    x_norm = float(np.linalg.norm(truth.matrix))
    cap = MS_BALL_CAP_FACTOR
    from_grad = epsilon / (
        2.0
        * math.sqrt(cap)
        * k ** 0.25
        * (cap * top_norm + x_norm)
        * math.sqrt(top_norm)
    )
    from_hess = eta / (
        2.0 * ((2.0 * cap) * math.sqrt(k) * top_norm + cap * top_norm + x_norm)
    )
    return min(from_grad, 1.0 / 36.0, from_hess)


def estimate_rip(
    ensemble: SensingEnsemble,
    rank_bound: int | None,
    n_probes: int,
    seed: int,
    epsilon: float | None = None,
    eta: float | None = None,
) -> RipReport:
    """Probe the isometry defect of the ensemble on low-rank matrices.

    Probes are Z = G G^T - H H^T with Gaussian factors sized to make
    rank(Z) <= rank_bound, normalized to unit Frobenius norm. They are drawn
    and checked a block at a time, one energy call per block. A rank_bound
    of None is min(r + k, N), the largest rank a difference of the truth
    and a k-factor point reaches; an epsilon or eta of None is read from
    default_thresholds(ensemble.truth).
    """
    truth = ensemble.truth
    if rank_bound is None:
        rank_bound = min(truth.rank + truth.target_rank, truth.dim)
    rb = int(rank_bound)
    if rb < 1 or rb > truth.dim:
        raise InvalidRank(
            f"rank bound must lie in [1, {truth.dim}], got {rank_bound}"
        )
    epsilon, eta = _thresholds(truth, epsilon, eta)

    gen = rng.stream(seed, "rip-probes", 0)
    dim = truth.dim
    # a probe's row: G's N ceil(rb/2) entries, then H's N floor(rb/2)
    split = dim * ((rb + 1) // 2)

    def propose(rows):
        gauss = rng.gaussian(rows)
        g = gauss[:, :split].reshape(len(rows), dim, (rb + 1) // 2)
        h = gauss[:, split:].reshape(len(rows), dim, rb // 2)
        return g @ np.swapaxes(g, 1, 2) - h @ np.swapaxes(h, 1, 2)

    worst = 0.0
    for z in _draws(propose, dim * rb, _accept_all, int(n_probes), gen, "rip probes"):
        energies = ensemble.energy(z / _item_norms(z, 2)[:, None, None])
        worst = max(worst, *np.abs(energies - 1.0).tolist())
    return RipReport(
        rank_bound=rb,
        n_probes=int(n_probes),
        seed=int(seed),
        delta_est=worst,
        delta_threshold=rip_delta_threshold(truth, epsilon, eta),
        epsilon=float(epsilon),
        eta=float(eta),
    )
