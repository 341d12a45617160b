"""Region classification and sampled verification of landscape guarantees.

The population risks admit a covering of their domains by regions on which
one of three things holds: strong convexity of the restricted Hessian, a
negative curvature direction, or a large gradient. This module classifies
points into those regions, draws samples from each region, verifies the
advertised quantitative bounds on the samples, estimates how far an
empirical risk sits from its population counterpart over a ball, and
measures restricted-isometry constants of sensing ensembles.

All sampled checks report Monte-Carlo evidence: a clean run certifies the
sampled points only, never the full region.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import (
    InvalidConfig,
    InvalidRank,
    InvalidSampleCount,
    SamplerStarved,
)
from .manifold import procrustes_distance
from .risk_models import (
    MsPopulationRisk,
    PrPopulationRisk,
    SensingEnsemble,
    SensingGroundTruth,
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
    top_norm = float(np.linalg.norm(truth.eigvals[: truth.target_rank]))
    return {
        "r1_radius": MS_R1_RADIUS_FACTOR / truth.kappa * math.sqrt(lam_k),
        "sigma_cap": MS_SIGMA_CAP_FACTOR * math.sqrt(lam_k),
        "ball_cap": MS_BALL_CAP_FACTOR * top_norm,
        "grad_split": MS_GRAD_SPLIT_FACTOR * lam_k ** 1.5,
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
    u = model._coerce(point)
    thresholds = ms_region_thresholds(truth)
    sigma_k = float(np.linalg.svd(u, compute_uv=False)[-1])
    uut_norm = float(np.linalg.norm(u @ u.T))
    grad_norm = float(np.linalg.norm(model.euclidean_grad(u)))
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


def saddle_sphere_distance(signal: np.ndarray, x: np.ndarray) -> float:
    """Distance from x to the saddle set, the sphere of radius
    ||x*|| / sqrt(3) inside the hyperplane orthogonal to the signal.
    Empty in dimension one, where the distance is infinite."""
    if signal.shape[0] < 2:
        return math.inf
    norm_star = float(np.linalg.norm(signal))
    radius = norm_star / math.sqrt(3.0)
    along = float(x @ signal) / norm_star
    perp = x - (along / norm_star) * signal
    perp_norm = float(np.linalg.norm(perp))
    return math.hypot(along, perp_norm - radius)


def classify_region_pr(signal, point) -> RegionLabelSet:
    """All phase-retrieval regions containing the point."""
    xstar = np.asarray(signal, dtype=float)
    x = np.asarray(point, dtype=float)
    norm_star = float(np.linalg.norm(xstar))
    norm_x = float(np.linalg.norm(x))
    sign_dist = min(
        float(np.linalg.norm(x - xstar)), float(np.linalg.norm(x + xstar))
    )
    saddle_dist = saddle_sphere_distance(xstar, x)

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


@dataclass(frozen=True)
class RegionSamplerConfig:
    n_per_region: int = 500
    seed: int = rng.DEFAULT_MASTER_SEED

    def __post_init__(self):
        if self.n_per_region < 1:
            raise InvalidSampleCount("n_per_region must be at least 1")


def _scaled_gaussian_factor(gen, n, k, uut_target):
    g = rng.normal(gen, (n, k))
    return g * math.sqrt(uut_target / np.linalg.norm(g @ g.T))


def _rejection_sample(propose, accept, n, budget, region):
    out = []
    attempts = 0
    while len(out) < n:
        if attempts >= budget:
            raise SamplerStarved(
                f"region {region}: {len(out)} of {n} samples after "
                f"{attempts} proposals"
            )
        attempts += 1
        candidate = propose()
        if accept(candidate):
            out.append(candidate)
    return out


def sample_region_ms(truth: SensingGroundTruth, region: str, n: int, gen) -> list:
    """Draw n factor points whose label set contains the region."""
    thresholds = ms_region_thresholds(truth)
    n_dim, k = truth.dim, truth.target_rank
    budget = max(n * ATTEMPT_FACTOR, 1000)

    def member(u):
        return region in classify_region_ms(truth, u).labels

    if region == MS_R1:
        anchor = truth.canonical_minimum()

        def propose():
            direction = rng.normal(gen, (n_dim, k))
            direction /= np.linalg.norm(direction)
            radius = thresholds["r1_radius"] * float(rng.uniform(gen))
            return anchor + radius * direction

    elif region == MS_R2P:
        selections = [
            sel
            for sel in _k_subsets(truth.rank, k)
            if list(sel) != list(range(k))
        ]
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
        state = {"i": 0}

        def propose():
            sel = selections[state["i"] % len(selections)]
            state["i"] += 1
            anchor = truth.canonical_point(sel)
            direction = rng.normal(gen, (n_dim, k))
            direction /= np.linalg.norm(direction)
            return anchor + radius * float(rng.uniform(gen)) * direction

    elif region in (MS_R2PP, MS_R3P):

        def propose():
            target = thresholds["ball_cap"] * float(rng.uniform(gen))
            return _scaled_gaussian_factor(gen, n_dim, k, target)

    elif region == MS_R3PP:

        def propose():
            target = thresholds["ball_cap"] * (1.0 + 3.0 * float(rng.uniform(gen)))
            return _scaled_gaussian_factor(gen, n_dim, k, target)

    else:
        raise InvalidConfig(f"unknown matrix-sensing region {region!r}")

    return _rejection_sample(propose, member, n, budget, region)


def sample_region_pr(signal, region: str, n: int, gen) -> list:
    """Draw n vectors whose label set contains the region."""
    xstar = np.asarray(signal, dtype=float)
    dim = xstar.shape[0]
    norm_star = float(np.linalg.norm(xstar))
    budget = max(n * ATTEMPT_FACTOR, 1000)

    def member(x):
        return region in classify_region_pr(xstar, x).labels

    if region == PR_R1:

        def propose():
            return (
                PR_R1_RADIUS_FACTOR
                * norm_star
                * float(rng.uniform(gen))
                * rng.unit_vector(gen, dim)
            )

    elif region == PR_R2:

        def propose():
            sign = 1.0 if float(rng.uniform(gen)) < 0.5 else -1.0
            offset = (
                PR_R2_RADIUS_FACTOR
                * norm_star
                * float(rng.uniform(gen))
                * rng.unit_vector(gen, dim)
            )
            return sign * xstar + offset

    elif region == PR_R3:
        if dim < 2:
            raise SamplerStarved(
                f"region {region}: the saddle sphere is empty in dimension one"
            )

        def propose():
            raw = rng.normal(gen, (dim,))
            raw -= (raw @ xstar) / norm_star ** 2 * xstar
            w = raw / np.linalg.norm(raw)
            offset = (
                PR_R3_RADIUS_FACTOR
                * norm_star
                * float(rng.uniform(gen))
                * rng.unit_vector(gen, dim)
            )
            return (norm_star / math.sqrt(3.0)) * w + offset

    elif region == PR_R4:

        def propose():
            radius = 1.5 * norm_star * float(rng.uniform(gen)) ** (1.0 / dim)
            return radius * rng.unit_vector(gen, dim)

    else:
        raise InvalidConfig(f"unknown phase-retrieval region {region!r}")

    return _rejection_sample(propose, member, n, budget, region)


def _k_subsets(r, k):
    return list(itertools.combinations(range(r), k))


# ---------------------------------------------------------------------------
# sampled bound verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegionCheck:
    """Result of one region's sampled bound: worst margin and violations.

    margin is the verified quantity minus its bound, oriented so that
    nonnegative means the bound holds; worst_margin is the minimum over
    the samples.
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
        return {
            "region": self.region,
            "bound_kind": self.bound_kind,
            "bound_value": float(self.bound_value),
            "requested": self.requested,
            "n_sampled": self.n_sampled,
            "n_violations": self.n_violations,
            "worst_margin": float(self.worst_margin),
            "skipped": self.skipped,
            "note": self.note,
        }


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
            "family": self.family,
            "n_per_region": self.n_per_region,
            "seed": self.seed,
            "all_clear": self.all_clear,
            "checks": [c.to_json_dict() for c in self.checks],
            "violations": [dict(v) for v in self.violations],
        }


def _run_region_checks(family, regions, sample, margin_of, config):
    checks = []
    violations = []
    for region in regions:
        gen = rng.stream(config.seed, f"regions-{family}/{region}", 0)
        try:
            samples = sample(region, config.n_per_region, gen)
        except SamplerStarved as starved:
            checks.append(
                RegionCheck(
                    region=region,
                    bound_kind="",
                    bound_value=math.nan,
                    requested=config.n_per_region,
                    n_sampled=0,
                    n_violations=0,
                    worst_margin=math.nan,
                    skipped=True,
                    note=str(starved),
                )
            )
            continue
        kind, bound, margins = margin_of(region, samples)
        worst = int(np.argmin(margins))
        bad = [i for i, m in enumerate(margins) if m < 0.0]
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
                bound_value=float(bound),
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
    model = MsPopulationRisk(truth)
    lam_k = float(truth.eigvals[truth.target_rank - 1])
    k = truth.target_rank
    grad_floors = {
        MS_R2PP: MS_GRAD_SPLIT_FACTOR * lam_k ** 1.5,
        MS_R3P: MS_R3P_GRAD_FLOOR / truth.kappa * lam_k ** 1.5,
        MS_R3PP: MS_R3PP_GRAD_FLOOR * k ** 0.25 * lam_k ** 1.5,
    }

    def margin_of(region, samples):
        if region == MS_R1:
            bound = MS_R1_CURVATURE_FLOOR * lam_k
            vals = [min_eig(model, u) for u in samples]
            return "curvature_floor", bound, [v - bound for v in vals]
        if region == MS_R2P:
            bound = MS_R2P_CURVATURE_CEIL * lam_k
            vals = [min_eig(model, u) for u in samples]
            return "curvature_ceiling", bound, [bound - v for v in vals]
        bound = grad_floors[region]
        vals = [
            float(np.linalg.norm(model.euclidean_grad(u))) for u in samples
        ]
        return "gradient_floor", bound, [v - bound for v in vals]

    return _run_region_checks(
        "ms",
        MS_REGIONS,
        lambda region, n, gen: sample_region_ms(truth, region, n, gen),
        margin_of,
        config,
    )


def verify_region_bounds_pr(signal, config: RegionSamplerConfig) -> RegionBoundReport:
    """Sample every phase-retrieval region and verify its bound."""
    xstar = np.asarray(signal, dtype=float)
    model = PrPopulationRisk(xstar)
    n2 = float(xstar @ xstar)
    n3 = n2 ** 1.5

    def margin_of(region, samples):
        if region == PR_R4:
            bound = PR_R4_GRAD_FLOOR * n3
            vals = [
                float(np.linalg.norm(model.euclidean_grad(x))) for x in samples
            ]
            return "gradient_floor", bound, [v - bound for v in vals]
        vals = [min_eig(model, x) for x in samples]
        if region == PR_R1:
            bound = PR_R1_CURVATURE_CEIL * n2
            return "curvature_ceiling", bound, [bound - v for v in vals]
        if region == PR_R2:
            bound = PR_R2_CURVATURE_FLOOR * n2
            return "curvature_floor", bound, [v - bound for v in vals]
        bound = PR_R3_CURVATURE_CEIL * n2
        return "curvature_ceiling", bound, [bound - v for v in vals]

    return _run_region_checks(
        "pr",
        PR_REGIONS,
        lambda region, n, gen: sample_region_pr(xstar, region, n, gen),
        margin_of,
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
    norm_star = float(np.linalg.norm(np.asarray(signal, dtype=float)))
    return AssumptionConfig(
        epsilon=PR_R4_GRAD_FLOOR * norm_star ** 3,
        eta=PR_R2_CURVATURE_FLOOR * norm_star ** 2,
        ball_radius=1.1 * norm_star,
        n_samples=n_samples,
        seed=rng.DEFAULT_MASTER_SEED if seed is None else seed,
    )


def default_sensing_assumption_config(truth, n_samples=2000, seed=None):
    lam_k = float(truth.eigvals[truth.target_rank - 1])
    k = truth.target_rank
    epsilon = (
        min(
            MS_GRAD_SPLIT_FACTOR,
            MS_R3P_GRAD_FLOOR / truth.kappa,
            MS_R3PP_GRAD_FLOOR * k ** 0.25,
        )
        * lam_k ** 1.5
    )
    return AssumptionConfig(
        epsilon=epsilon,
        eta=-MS_R2P_CURVATURE_CEIL * lam_k,
        ball_radius=MS_BALL_CAP_FACTOR
        * float(np.linalg.norm(truth.eigvals[: truth.target_rank])),
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
        return {
            "epsilon": self.epsilon,
            "eta": self.eta,
            "ball_radius": self.ball_radius,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "sup_grad_diff_est": self.sup_grad_diff_est,
            "sup_hess_diff_est": self.sup_hess_diff_est,
            "small_gradient_count": self.small_gradient_count,
            "saddle_margin_violations": [
                dict(v) for v in self.saddle_margin_violations
            ],
            "verdicts": dict(self.verdicts),
            "overall_pass": self.overall_pass,
            "caveat": self.caveat,
        }


def _sample_ball(population, radius, gen):
    if population.is_factor:
        n, k = population.shape
        while True:
            target = radius * float(rng.uniform(gen))
            draw = _scaled_gaussian_factor(gen, n, k, target)
            sigma = np.linalg.svd(draw, compute_uv=False)
            if sigma[-1] > 1e-12 * max(sigma[0], 1.0):
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
        return {
            "rank_bound": self.rank_bound,
            "n_probes": self.n_probes,
            "seed": self.seed,
            "delta_est": self.delta_est,
            "delta_threshold": self.delta_threshold,
            "epsilon": self.epsilon,
            "eta": self.eta,
            "within_threshold": self.within_threshold,
        }


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
    from_grad = epsilon / (
        2.0
        * math.sqrt(8.0 / 7.0)
        * k ** 0.25
        * ((8.0 / 7.0) * top_norm + x_norm)
        * math.sqrt(top_norm)
    )
    from_hess = eta / (
        2.0 * ((16.0 / 7.0) * math.sqrt(k) * top_norm + (8.0 / 7.0) * top_norm + x_norm)
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
