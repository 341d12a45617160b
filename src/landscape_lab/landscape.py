"""Region classification and sampled verification of landscape guarantees.

The population risks admit a covering of their domains by regions on which
one of three things holds: strong convexity of the restricted Hessian, a
negative curvature direction, or a large gradient. ms_region_bounds and
pr_region_bounds tabulate those bounds; this module classifies points
into the regions, samples each region and verifies its tabled bound,
estimates how far an empirical risk sits from its population counterpart
over a ball (epsilon and eta default to tabled bounds), and measures
restricted-isometry constants of sensing ensembles.

All sampled checks report Monte-Carlo evidence: a clean run certifies the
sampled points only, never the full region.

The samplers draw uniforms BLOCK rows at a time, so the stream is read
exactly as by one rng call per draw, and build each block into a stack of
proposals in one pass, each bit for bit the proposal built from its row
alone. Each proposal is still classified on its own, one classify_region_*
call per proposal, in order; the classifiers read the values that depend
on the truth alone from the truth, which computes them once. The region
checks then evaluate their samples in stacks of BLOCK, one min_eig or
euclidean_grad call on the population risk per stack, each value bit for
bit the single-point one, so the reports do not depend on BLOCK.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from . import rng
from .errors import (
    InvalidConfig,
    InvalidRank,
    InvalidSampleCount,
    SamplerStarved,
)
from .manifold import _norm, item_norms, procrustes_distance
from .risk_models import (
    MsPopulationRisk,
    PrPopulationRisk,
    SensingEnsemble,
    SensingGroundTruth,
    _coerce,
    _phase_signal,
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
    the separation condition); advisory mirrors their presence.
    """

    labels: frozenset
    witness: dict
    notes: tuple = ()

    @property
    def advisory(self) -> bool:
        return bool(self.notes)

    def to_json_dict(self) -> dict:
        return {
            "labels": sorted(self.labels),
            "witness": {k: float(v) for k, v in self.witness.items()},
            "notes": list(self.notes),
        }


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


def classify_region_ms(truth: SensingGroundTruth, point) -> RegionLabelSet:
    """All matrix-sensing regions containing the factor point.

    Distance to the minima is measured as the Procrustes distance to the
    canonical minimum; Procrustes absorbs the gauge orbit, and spectra
    whose minima extend beyond one orbit are flagged advisory rather than
    resolved.
    """
    model = MsPopulationRisk(truth)
    u = _coerce(point, model.shape)
    thresholds = ms_region_thresholds(truth)
    sigma_k = float(np.linalg.svd(u, compute_uv=False)[-1])
    uut_norm = _norm(u @ u.T)
    grad_norm = _norm(model._gradient(u))
    distance = procrustes_distance(u, truth.canonical_minimum())

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
    return RegionLabelSet(frozenset(labels), witness, _truth_notes(truth))


def saddle_sphere_distance(signal, x) -> float:
    """Distance from x to the saddle set, the sphere of radius
    ||x*|| / sqrt(3) inside the hyperplane orthogonal to the signal.
    Empty in dimension one, where the distance is infinite. The signal is
    rejected as the phase risks reject it, and x must be finite and of its
    shape."""
    xstar = _phase_signal(signal)
    return _saddle_distance(xstar, _norm(xstar), _coerce(x, xstar.shape))


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
    xstar = np.asarray(signal, dtype=float)
    n2 = float(xstar @ xstar)
    return {
        PR_R1: (CURVATURE_CEILING, PR_R1_CURVATURE_CEIL * n2),
        PR_R2: (CURVATURE_FLOOR, PR_R2_CURVATURE_FLOOR * n2),
        PR_R3: (CURVATURE_CEILING, PR_R3_CURVATURE_CEIL * n2),
        PR_R4: (GRADIENT_FLOOR, PR_R4_GRAD_FLOOR * n2 ** 1.5),
    }


def classify_region_pr(signal, point) -> RegionLabelSet:
    """All phase-retrieval regions containing the point."""
    xstar = _phase_signal(signal)
    x = _coerce(point, xstar.shape)
    norm_star = _norm(xstar)
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
# region samplers
# ---------------------------------------------------------------------------


# starvation declared below 0.1% proposal acceptance
ATTEMPT_FACTOR = 1000
# proposals per block of uniforms, and samples per stacked region check
BLOCK = 64


@dataclass(frozen=True)
class RegionSamplerConfig:
    n_per_region: int = 500
    seed: int = rng.DEFAULT_MASTER_SEED

    def __post_init__(self):
        if self.n_per_region < 1:
            raise InvalidSampleCount("n_per_region must be at least 1")


def _scaled_gaussian_factor(g, uut_target):
    """The Gaussian factor G scaled so that ||G G^T||_F is uut_target; on a
    (B, N, k) stack each item is scaled to its own target."""
    gram_norms = item_norms(g @ np.swapaxes(g, -1, -2), 2)
    return g * np.sqrt(uut_target / gram_norms)[..., None, None]


def _unit_rows(g):
    """Each row of g divided by its norm, which item_norms rounds as
    np.linalg.norm rounds that row alone."""
    return g / item_norms(g, 1)[:, None]


def _rejection_sample(propose, width, classify, region, n, gen):
    """Keep proposals whose classify(...).labels hold the region, n of them.

    Rows of width uniforms are drawn from gen BLOCK at a time (fewer where
    the block would pass the starvation budget), so the stream is read as
    by one draw per proposal, and propose(rows) builds the block's (B,
    *shape) stack of proposals, each item bit for bit the proposal built
    from its row alone. Every proposal is classified on its own, in order,
    until n are kept or the budget is spent; proposals after the stop are
    built but neither classified nor counted. gen may be left advanced past
    the last accepted proposal, to the end of its block.
    """
    budget = max(n * ATTEMPT_FACTOR, 1000)
    out = []
    attempts = 0
    while len(out) < n:
        if attempts >= budget:
            raise SamplerStarved(
                f"region {region}: {len(out)} of {n} samples after "
                f"{attempts} proposals"
            )
        rows = rng.uniform(gen, (min(BLOCK, budget - attempts), width))
        for candidate in propose(rows):
            attempts += 1
            if region in classify(candidate).labels:
                out.append(candidate)
                if len(out) == n:
                    break
    return out


def sample_region_ms(truth: SensingGroundTruth, region: str, n: int, gen) -> list:
    """Draw n factor points whose label set contains the region.

    A proposal reads one row of uniforms: N k Gaussian entries then a radius
    (MS_R1, MS_R2p), or a scale then N k Gaussian entries (the others). Each
    block of rows is built into proposals in one stacked pass: one
    rng.gaussian call, and norms from item_norms. gen may be advanced past
    the last accepted proposal.
    """
    thresholds = ms_region_thresholds(truth)
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
        cap = thresholds["ball_cap"]

        # ||U U^T||_F uniform on (0, cap), or on (cap, 4 cap) for MS_R3pp
        def propose(rows):
            scale = 1.0 + 3.0 * rows[:, 0] if region == MS_R3PP else rows[:, 0]
            g = rng.gaussian(rows[:, 1:]).reshape(-1, n_dim, k)
            return _scaled_gaussian_factor(g, cap * scale)

        width = 1 + nk

    else:
        raise InvalidConfig(f"unknown matrix-sensing region {region!r}")

    classify = partial(classify_region_ms, truth)
    return _rejection_sample(propose, width, classify, region, n, gen)


def sample_region_pr(signal, region: str, n: int, gen) -> list:
    """Draw n vectors whose label set contains the region.

    A proposal reads one row of uniforms: a radius then N for a direction
    (PR_R1, PR_R4); a sign, a radius and N (PR_R2); N for the saddle
    direction, a radius and N (PR_R3). Each block of rows is built into
    proposals in one stacked pass, as for sample_region_ms. gen may be
    advanced past the last accepted proposal.
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

        def propose(rows):
            # the root by Python's pow, row by row: numpy's vectorised power
            # rounds differently on some hosts
            roots = np.array([u ** (1.0 / dim) for u in rows[:, 0].tolist()])
            radii = 1.5 * norm_star * roots
            return radii[:, None] * _unit_rows(rng.gaussian(rows[:, 1:]))

        width = 1 + dim

    else:
        raise InvalidConfig(f"unknown phase-retrieval region {region!r}")

    classify = partial(classify_region_pr, xstar)
    return _rejection_sample(propose, width, classify, region, n, gen)


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
    family: str
    n_per_region: int
    seed: int
    checks: tuple
    violations: tuple = ()

    @property
    def all_clear(self) -> bool:
        return all(c.n_violations == 0 for c in self.checks)

    def check(self, region: str) -> RegionCheck:
        for c in self.checks:
            if c.region == region:
                return c
        raise KeyError(region)

    def to_json_dict(self) -> dict:
        return {
            **asdict(self),
            "all_clear": self.all_clear,
            "checks": [c.to_json_dict() for c in self.checks],
        }


def _check_values(model, kind, stack):
    """The checked quantity at each point of a stack, from one call: the
    Euclidean gradient norm for a gradient floor, else min_eig. Each equals
    the value at that point alone, bit for bit."""
    if kind == GRADIENT_FLOOR:
        return item_norms(model.euclidean_grad(stack), len(model.shape))
    return min_eig(model, stack)


def _run_region_checks(family, model, bounds, sample, config):
    """Check each tabled bound on samples of its region: min_eig against a
    curvature bound, the Euclidean gradient norm against a gradient floor.
    The samples are checked in stacks of BLOCK, one population-risk call per
    stack."""
    checks = []
    violations = []
    for region, (kind, bound) in bounds.items():
        gen = rng.stream(config.seed, f"regions-{family}/{region}", 0)
        try:
            samples = sample(region, config.n_per_region, gen)
        except SamplerStarved as starved:
            checks.append(
                RegionCheck(
                    region=region,
                    bound_kind=kind,
                    bound_value=bound,
                    requested=config.n_per_region,
                    n_sampled=0,
                    n_violations=0,
                    worst_margin=math.nan,
                    skipped=True,
                    note=str(starved),
                )
            )
            continue
        stack = np.stack(samples)
        vals = np.concatenate(
            [
                _check_values(model, kind, stack[start:start + BLOCK])
                for start in range(0, len(stack), BLOCK)
            ]
        )
        margins = bound - vals if kind == CURVATURE_CEILING else vals - bound
        worst = int(np.argmin(margins))
        bad = np.flatnonzero(margins < 0.0)
        for i in bad:
            violations.append(
                {
                    "region": region,
                    "margin": float(margins[i]),
                    "point_row_major": np.asarray(samples[i]).ravel().tolist(),
                }
            )
        checks.append(
            RegionCheck(
                region=region,
                bound_kind=kind,
                bound_value=bound,
                requested=config.n_per_region,
                n_sampled=len(samples),
                n_violations=len(bad),
                worst_margin=float(margins[worst]),
            )
        )
    return RegionBoundReport(
        family=family,
        n_per_region=config.n_per_region,
        seed=config.seed,
        checks=tuple(checks),
        violations=tuple(violations),
    )


def verify_region_bounds_ms(
    truth: SensingGroundTruth, config: RegionSamplerConfig
) -> RegionBoundReport:
    """Sample every matrix-sensing region and verify its curvature or
    gradient bound on each sample."""
    return _run_region_checks(
        "ms",
        MsPopulationRisk(truth),
        ms_region_bounds(truth),
        lambda region, n, gen: sample_region_ms(truth, region, n, gen),
        config,
    )


def verify_region_bounds_pr(signal, config: RegionSamplerConfig) -> RegionBoundReport:
    """Sample every phase-retrieval region and verify its bound."""
    xstar = np.asarray(signal, dtype=float)
    return _run_region_checks(
        "pr",
        PrPopulationRisk(xstar),
        pr_region_bounds(xstar),
        lambda region, n, gen: sample_region_pr(xstar, region, n, gen),
        config,
    )


# ---------------------------------------------------------------------------
# proximity of empirical to population risk over a ball
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AssumptionConfig:
    """Monte-Carlo budget and thresholds for the proximity check.

    epsilon bounds the gradient deviation, eta the Hessian deviation in
    operator norm, ball_radius the sampling ball: ||x|| <= l for vectors,
    ||U U^T||_F <= l for factors.
    """

    epsilon: float
    eta: float
    ball_radius: float
    n_samples: int = 2000
    seed: int = rng.DEFAULT_MASTER_SEED

    def __post_init__(self):
        if not (self.epsilon > 0.0 and self.eta > 0.0 and self.ball_radius > 0.0):
            raise InvalidConfig(
                "epsilon, eta, and ball_radius must all be positive"
            )
        if self.n_samples < 1:
            raise InvalidSampleCount("n_samples must be at least 1")


def default_phase_assumption_config(signal, n_samples=2000, seed=None):
    """epsilon is the far-field gradient floor (R4), eta the curvature floor
    around the minima (R2)."""
    xstar = np.asarray(signal, dtype=float)
    bounds = pr_region_bounds(xstar)
    return AssumptionConfig(
        epsilon=bounds[PR_R4][1],
        eta=bounds[PR_R2][1],
        ball_radius=1.1 * float(np.linalg.norm(xstar)),
        n_samples=n_samples,
        seed=rng.DEFAULT_MASTER_SEED if seed is None else seed,
    )


def default_sensing_assumption_config(truth, n_samples=2000, seed=None):
    """epsilon is the smallest gradient floor, eta the depth of the swap
    saddles' curvature ceiling (R2'), and the ball is the R3'' cap."""
    bounds = ms_region_bounds(truth)
    return AssumptionConfig(
        epsilon=min(v for kind, v in bounds.values() if kind == GRADIENT_FLOOR),
        eta=-bounds[MS_R2P][1],
        ball_radius=ms_region_thresholds(truth)["ball_cap"],
        n_samples=n_samples,
        seed=rng.DEFAULT_MASTER_SEED if seed is None else seed,
    )


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


def _sample_ball(population, radius, gen):
    if population.is_factor:
        n, k = population.shape
        while True:
            target = radius * float(rng.uniform(gen))
            draw = _scaled_gaussian_factor(rng.normal(gen, (n, k)), target)
            sigma = np.linalg.svd(draw, compute_uv=False)
            # relative to sigma[0] alone: an absolute floor would reject
            # every draw in a small enough ball
            if sigma[-1] > 1e-12 * sigma[0]:
                return draw
    dim = population.shape[0]
    return radius * float(rng.uniform(gen)) ** (1.0 / dim) * rng.unit_vector(gen, dim)


def _hessian_diff_opnorm(population, empirical, point):
    """Operator norm of hess f - hess g, in the tangent space of
    spectral.hessian_form."""
    diff = hessian_form(empirical, point) - hessian_form(population, point)
    eigvals = np.linalg.eigvalsh(diff)
    return float(max(abs(eigvals[0]), abs(eigvals[-1])))


def check_assumptions(population, empirical, config: AssumptionConfig) -> AssumptionReport:
    """Estimate the gradient and Hessian deviation of an empirical risk from
    its population risk over the configured ball, and audit the population
    risk's own saddle margin at sampled small-gradient points."""
    if population.shape != empirical.shape:
        raise InvalidConfig("population and empirical models disagree on shape")
    gen = rng.stream(config.seed, "assumption-ball", 0)
    sup_grad = 0.0
    sup_hess = 0.0
    small_grad = 0
    violations = []
    for _ in range(config.n_samples):
        point = _sample_ball(population, config.ball_radius, gen)
        grad_pop = population.euclidean_grad(point)
        grad_diff = float(
            np.linalg.norm(empirical.euclidean_grad(point) - grad_pop)
        )
        sup_grad = max(sup_grad, grad_diff)
        sup_hess = max(sup_hess, _hessian_diff_opnorm(population, empirical, point))
        if float(np.linalg.norm(grad_pop)) <= config.epsilon:
            small_grad += 1
            lam = min_eig(population, point)
            if abs(lam) < config.eta:
                violations.append(
                    {
                        "point_row_major": np.asarray(point).ravel().tolist(),
                        "lambda_min": float(lam),
                        "grad_norm": float(np.linalg.norm(grad_pop)),
                    }
                )
    verdicts = {
        "gradient_proximity": "PASS" if sup_grad <= config.epsilon / 2.0 else "FAIL",
        "hessian_proximity": "PASS" if sup_hess <= config.eta / 2.0 else "FAIL",
        "eigenvalue_margin": "PASS" if not violations else "FAIL",
    }
    return AssumptionReport(
        epsilon=config.epsilon,
        eta=config.eta,
        ball_radius=config.ball_radius,
        n_samples=config.n_samples,
        seed=config.seed,
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
    if not (epsilon > 0.0 and eta > 0.0):
        raise InvalidConfig("epsilon and eta must be positive")
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
    rank_bound: int,
    n_probes: int,
    seed: int,
    epsilon: float | None = None,
    eta: float | None = None,
) -> RipReport:
    """Probe the isometry defect of the ensemble on low-rank matrices.

    Probes are Z = G G^T - H H^T with Gaussian factors sized to make
    rank(Z) <= rank_bound, normalized to unit Frobenius norm.
    """
    truth = ensemble.truth
    rb = int(rank_bound)
    if rb < 1 or rb > truth.dim:
        raise InvalidRank(
            f"rank bound must lie in [1, {truth.dim}], got {rank_bound}"
        )
    if n_probes < 1:
        raise InvalidSampleCount("need at least one probe")
    if epsilon is None or eta is None:
        defaults = default_sensing_assumption_config(truth)
        epsilon = defaults.epsilon if epsilon is None else epsilon
        eta = defaults.eta if eta is None else eta

    gen = rng.stream(seed, "rip-probes", 0)
    cols_pos = (rb + 1) // 2
    cols_neg = rb // 2
    worst = 0.0
    for _ in range(int(n_probes)):
        g = rng.normal(gen, (truth.dim, cols_pos))
        z = g @ g.T
        if cols_neg:
            h = rng.normal(gen, (truth.dim, cols_neg))
            z = z - h @ h.T
        z = z / np.linalg.norm(z)
        energy = ensemble.energy(z)
        worst = max(worst, abs(energy - 1.0))
    return RipReport(
        rank_bound=rb,
        n_probes=int(n_probes),
        seed=int(seed),
        delta_est=worst,
        delta_threshold=rip_delta_threshold(truth, epsilon, eta),
        epsilon=float(epsilon),
        eta=float(eta),
    )
