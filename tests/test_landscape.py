"""Region classification, samplers, bound suites, proximity and isometry checks."""

import itertools
import json
import math
import os
import pathlib
import re
import subprocess
import sys
from functools import partial

import numpy as np
import pytest

from landscape_lab import experiments, landscape, rng
from landscape_lab.errors import (
    DimensionMismatch,
    InvalidConfig,
    InvalidRank,
    InvalidSampleCount,
    NonFiniteEntry,
    SamplerStarved,
    ZeroTruthSignal,
)
from landscape_lab.landscape import (
    CURVATURE_CEILING,
    CURVATURE_FLOOR,
    GRADIENT_FLOOR,
    MS_R1,
    MS_R2P,
    MS_R2PP,
    MS_R3P,
    MS_R3PP,
    MS_REGIONS,
    PR_R1,
    PR_R2,
    PR_R3,
    PR_R4,
    PR_R1_RADIUS_FACTOR,
    PR_R2_RADIUS_FACTOR,
    PR_R3_RADIUS_FACTOR,
    PR_REGIONS,
    AssumptionConfig,
    BLOCK,
    RegionLabelSet,
    RegionSamplerConfig,
    check_assumptions,
    classify_region_ms,
    classify_region_pr,
    default_phase_assumption_config,
    default_sensing_assumption_config,
    estimate_rip,
    ms_region_bounds,
    ms_region_thresholds,
    pr_region_bounds,
    rip_delta_threshold,
    saddle_sphere_distance,
    sample_region_ms,
    sample_region_pr,
    verify_region_bounds_ms,
    verify_region_bounds_pr,
)
from landscape_lab.manifold import procrustes_distance
from landscape_lab.risk_models import (
    MsEmpiricalRisk,
    MsPopulationRisk,
    PrEmpiricalRisk,
    PrPopulationRisk,
    SensingGroundTruth,
    generate_phase_problem,
    generate_sensing_ensemble,
)

XSTAR = np.array([1.2, -0.5, 0.3])

# signals the phase risks reject, with the error they raise
BAD_PR_SIGNALS = [
    (np.zeros(2), ZeroTruthSignal),
    (np.ones((2, 1)), ZeroTruthSignal),
    (np.array([np.nan, 1.0]), NonFiniteEntry),
    (np.array([np.inf, 1.0]), NonFiniteEntry),
]
BAD_PR_SIGNAL_IDS = ["zero", "not-1d", "nan", "inf"]


def strict_json(payload):
    """Round-trip through RFC 8259 JSON: NaN and Infinity are rejected."""

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(json.dumps(payload), parse_constant=reject)


def separated_truth(n=8, seed=11):
    return SensingGroundTruth.from_random_basis(
        dim=n, eigvals=(1.3, 1.0, 0.08), target_rank=2, seed=seed
    )


def full_rank_truth():
    # r == k: no swap saddles exist
    return SensingGroundTruth.from_random_basis(
        dim=6, eigvals=(1.5, 1.0), target_rank=2, seed=3
    )


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


class TestClassifyMs:
    def test_minimum_is_exactly_r1(self):
        truth = separated_truth()
        labels = classify_region_ms(truth, truth.canonical_minimum()).labels
        assert labels == {MS_R1}

    def test_doubled_minimum_leaves_the_ball(self):
        truth = separated_truth()
        result = classify_region_ms(truth, 2.0 * truth.canonical_minimum())
        assert MS_R3PP in result.labels

    def test_swap_saddle_lands_in_r2_prime(self):
        truth = separated_truth()
        saddle = truth.canonical_point([0, 2])
        result = classify_region_ms(truth, saddle)
        assert MS_R2P in result.labels
        assert result.witness["grad_norm"] <= result.witness["grad_split"]

    def test_r1_and_small_sigma_regions_disjoint(self):
        # within the recovery ball the smallest singular value stays above
        # the cap, so the R2 conditions cannot fire
        truth = separated_truth()
        gen = rng.stream(5, "classify-disjoint", 0)
        anchor = truth.canonical_minimum()
        radius = ms_region_thresholds(truth)["r1_radius"]
        for _ in range(200):
            direction = rng.normal(gen, anchor.shape)
            direction /= np.linalg.norm(direction)
            point = anchor + radius * float(rng.uniform(gen)) * direction
            labels = classify_region_ms(truth, point).labels
            if MS_R1 in labels:
                assert MS_R2P not in labels
                assert MS_R2PP not in labels

    def test_every_point_gets_a_label(self):
        truth = separated_truth(n=5, seed=2)
        gen = rng.stream(7, "classify-covering-ms", 0)
        for _ in range(10_000):
            scale = 10.0 ** (3.0 * float(rng.uniform(gen)) - 2.0)
            point = scale * rng.normal(gen, (truth.dim, truth.target_rank))
            result = classify_region_ms(truth, point)
            assert result.labels, f"unlabeled point at scale {scale}"

    def test_witness_carries_thresholds_and_scalars(self):
        truth = separated_truth()
        result = classify_region_ms(truth, truth.canonical_minimum())
        for key in (
            "sigma_k",
            "uut_norm",
            "grad_norm",
            "minimum_distance",
            "r1_radius",
            "sigma_cap",
            "ball_cap",
            "grad_split",
        ):
            assert key in result.witness
        assert result.witness["minimum_distance"] <= 1e-7
        assert not result.advisory
        json.dumps(result.to_json_dict())

    def test_poorly_separated_truth_is_advisory(self):
        truth = SensingGroundTruth.from_random_basis(
            dim=5, eigvals=(1.0, 0.9, 0.8), target_rank=2, seed=1
        )
        result = classify_region_ms(truth, truth.canonical_minimum())
        assert result.advisory
        assert any("separation" in note for note in result.notes)


class TestClassifyPr:
    def test_origin_is_in_r1(self):
        assert PR_R1 in classify_region_pr(XSTAR, np.zeros(3)).labels

    def test_signal_is_exactly_r2(self):
        assert classify_region_pr(XSTAR, XSTAR).labels == {PR_R2}
        assert classify_region_pr(XSTAR, -XSTAR).labels == {PR_R2}

    def test_saddle_is_exactly_r3(self):
        norm_star = np.linalg.norm(XSTAR)
        w = np.array([0.5, 1.2, 0.0])
        w -= (w @ XSTAR) / norm_star**2 * XSTAR
        w /= np.linalg.norm(w)
        saddle = norm_star / math.sqrt(3.0) * w
        assert classify_region_pr(XSTAR, saddle).labels == {PR_R3}

    def test_r4_exactly_when_nothing_else_fires(self):
        gen = rng.stream(9, "classify-covering-pr", 0)
        for _ in range(10_000):
            scale = 10.0 ** (3.0 * float(rng.uniform(gen)) - 2.0)
            x = scale * rng.normal(gen, (3,))
            labels = classify_region_pr(XSTAR, x).labels
            assert labels
            if PR_R4 in labels:
                assert labels == {PR_R4}
            else:
                assert labels & {PR_R1, PR_R2, PR_R3}

    def test_far_point_is_r4(self):
        assert classify_region_pr(XSTAR, 10.0 * XSTAR).labels == {PR_R4}

    def test_r2_membership_implies_strong_convexity(self):
        # ties the classifier to the curvature floor: every randomly found
        # R2 point must have a strongly convex Hessian
        from landscape_lab.risk_models import PrPopulationRisk
        from landscape_lab.spectral import min_eig

        model = PrPopulationRisk(XSTAR)
        floor = 0.22 * float(XSTAR @ XSTAR)
        gen = rng.stream(12, "r2-convexity", 0)
        hits = 0
        for _ in range(3000):
            x = XSTAR * (1.0 if float(rng.uniform(gen)) < 0.5 else -1.0)
            x = x + 0.3 * rng.normal(gen, (3,))
            if PR_R2 in classify_region_pr(XSTAR, x).labels:
                hits += 1
                assert min_eig(model, x) >= floor
        assert hits > 50

    def test_dimension_one_never_sees_r3(self):
        xstar = np.array([1.0])
        for x in (np.array([0.57735]), np.array([-0.57735]), np.array([0.3])):
            assert PR_R3 not in classify_region_pr(xstar, x).labels
        assert classify_region_pr(xstar, np.array([0.57735])).witness[
            "saddle_distance"
        ] == math.inf

    def test_saddle_distance_halfway_cases(self):
        # along the signal axis the nearest saddle keeps its full radius
        norm_star = float(np.linalg.norm(XSTAR))
        w = classify_region_pr(XSTAR, 0.3 * XSTAR).witness["saddle_distance"]
        expected = math.hypot(0.3 * norm_star, norm_star / math.sqrt(3.0))
        assert w == pytest.approx(expected, rel=1e-12)

    def test_rejects_non_finite_point(self):
        with pytest.raises(NonFiniteEntry):
            classify_region_pr(XSTAR, np.array([np.nan, 0.0, 1.0]))
        with pytest.raises(NonFiniteEntry):
            classify_region_pr(XSTAR, np.array([np.inf, 0.0, 1.0]))

    @pytest.mark.parametrize("signal, error", BAD_PR_SIGNALS, ids=BAD_PR_SIGNAL_IDS)
    def test_rejects_signal_the_risks_reject(self, signal, error):
        with pytest.raises(error):
            PrPopulationRisk(signal)
        with pytest.raises(error):
            classify_region_pr(signal, np.ones(signal.shape))

    def test_rejects_wrong_shape(self):
        with pytest.raises(DimensionMismatch):
            classify_region_pr(np.array([1.0, -1.0]), np.ones(3))
        with pytest.raises(DimensionMismatch):
            classify_region_pr(XSTAR, np.ones((3, 1)))


class TestSaddleSphereDistance:
    def test_zero_signal_is_rejected(self):
        with pytest.raises(ZeroTruthSignal):
            saddle_sphere_distance(np.zeros(3), np.ones(3))

    def test_non_finite_signal_is_rejected(self):
        with pytest.raises(NonFiniteEntry):
            saddle_sphere_distance(np.array([np.nan, 1.0, 0.0]), np.ones(3))

    def test_point_of_another_length_is_rejected(self):
        with pytest.raises(DimensionMismatch):
            saddle_sphere_distance(XSTAR, np.ones(2))

    def test_non_finite_point_is_rejected(self):
        with pytest.raises(NonFiniteEntry):
            saddle_sphere_distance(XSTAR, np.array([np.nan, 0.0, 1.0]))

    def test_classifier_reports_this_distance(self):
        x = np.array([0.4, 0.9, -0.2])
        assert classify_region_pr(XSTAR, x).witness[
            "saddle_distance"
        ] == saddle_sphere_distance(XSTAR, x)
        assert saddle_sphere_distance(np.array([2.0]), np.array([0.5])) == math.inf


def ms_oracle(truth, point):
    """classify_region_ms's witness and notes from numpy primitives and a
    freshly built copy of the truth, so that nothing cached is read."""
    fresh = SensingGroundTruth(truth.eigvecs, truth.eigvals, truth.target_rank)
    k = fresh.target_rank
    u = np.array(point, dtype=float)
    target = (fresh.eigvecs * fresh.eigvals) @ fresh.eigvecs.T
    minimum = fresh.eigvecs[:, :k] * np.sqrt(fresh.eigvals[:k])
    witness = {
        "sigma_k": float(np.linalg.svd(u, compute_uv=False)[-1]),
        "uut_norm": float(np.linalg.norm(u @ u.T)),
        "grad_norm": float(np.linalg.norm((u @ u.T - target) @ u)),
        "minimum_distance": procrustes_distance(u, minimum),
        **ms_region_thresholds(fresh),
    }
    return witness, landscape._truth_notes(fresh)


def pr_oracle(signal, x):
    """classify_region_pr's witness from np.linalg.norm and the saddle
    sphere's closed form."""
    norm_star = float(np.linalg.norm(signal))
    if signal.shape[0] < 2:
        saddle = math.inf
    else:
        along = float(x @ signal) / norm_star
        perp = float(np.linalg.norm(x - (along / norm_star) * signal))
        saddle = math.hypot(along, perp - norm_star / math.sqrt(3.0))
    return {
        "norm_x": float(np.linalg.norm(x)),
        "sign_distance": min(
            float(np.linalg.norm(x - signal)), float(np.linalg.norm(x + signal))
        ),
        "saddle_distance": saddle,
        "r1_radius": PR_R1_RADIUS_FACTOR * norm_star,
        "r2_radius": PR_R2_RADIUS_FACTOR * norm_star,
        "r3_radius": PR_R3_RADIUS_FACTOR * norm_star,
    }


def cli_truth(**dims):
    """The truth regions_ms builds for these --n/--k/--r values."""
    config = experiments.ExperimentConfig("regions_ms", **dims)
    return experiments._sensing_instance(config)[0]


class TestClassifierOracle:
    """Witnesses and notes equal, with ==, values built without the truth's
    cached ones, on samples of every region, with two truths classified in
    alternation: serving one truth's cached values to the other fails."""

    def test_ms_witness_and_notes_match_the_oracle(self):
        truths = (cli_truth(), cli_truth(n=6, k=3, r=4))
        assert truths[1].boundary_multiplicity == "uniform_top"
        # every swap of the uniform top block is a minimum: MS_R2p starves
        regions = (MS_REGIONS, [r for r in MS_REGIONS if r != MS_R2P])
        points = [
            [
                point
                for region in regions[i]
                for point in sample_region_ms(
                    truth, region, 6, rng.stream(31, f"oracle-{region}", i)
                )
            ]
            for i, truth in enumerate(truths)
        ]
        for pair in zip(*points):
            for truth, point in zip(truths, pair):
                got = classify_region_ms(truth, point)
                witness, notes = ms_oracle(truth, point)
                assert got.witness == witness
                assert got.notes == notes
        assert landscape._truth_notes(truths[0]) == ()
        assert len(landscape._truth_notes(truths[1])) == 2

    def test_cached_truth_arrays_are_read_only(self):
        truth = cli_truth()
        for arr in (truth.matrix, truth.canonical_minimum()):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0
        assert truth.matrix is truth.matrix
        assert truth.canonical_minimum() is truth.canonical_minimum()

    def test_pr_witness_matches_the_oracle(self):
        signals = [
            np.array([1.0 if i % 2 == 0 else -1.0 for i in range(n)]) for n in (1, 3, 5)
        ]
        points = []
        for signal in signals:
            mine = []
            for region in PR_REGIONS:
                if region == PR_R3 and signal.shape[0] == 1:
                    continue  # the saddle sphere is empty
                gen = rng.stream(32, f"oracle-{region}", signal.shape[0])
                mine.extend(sample_region_pr(signal, region, 6, gen))
            points.append(mine)
        for triple in itertools.zip_longest(*points):
            for signal, x in zip(signals, triple):
                if x is None:
                    continue
                got = classify_region_pr(signal, x)
                assert got.witness == pr_oracle(signal, x)
                assert got.notes == ()


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


class TestSamplers:
    @pytest.mark.parametrize("region", MS_REGIONS)
    def test_ms_samples_carry_their_label(self, region):
        truth = separated_truth()
        gen = rng.stream(21, f"sampler-{region}", 0)
        for point in sample_region_ms(truth, region, 25, gen):
            assert region in classify_region_ms(truth, point).labels

    @pytest.mark.parametrize("region", PR_REGIONS)
    def test_pr_samples_carry_their_label(self, region):
        gen = rng.stream(22, f"sampler-{region}", 0)
        for point in sample_region_pr(XSTAR, region, 25, gen):
            assert region in classify_region_pr(XSTAR, point).labels

    @pytest.mark.parametrize("signal, error", BAD_PR_SIGNALS, ids=BAD_PR_SIGNAL_IDS)
    def test_pr_sampler_rejects_bad_signal(self, signal, error):
        gen = rng.stream(23, "sampler-bad-signal", 0)
        for region in PR_REGIONS:
            with pytest.raises(error):
                sample_region_pr(signal, region, 3, gen)

    def test_unknown_region_rejected(self):
        truth = separated_truth()
        gen = rng.stream(1, "sampler-bad", 0)
        with pytest.raises(InvalidConfig):
            sample_region_ms(truth, "MS_R9", 1, gen)
        with pytest.raises(InvalidConfig):
            sample_region_pr(XSTAR, "PR_R9", 1, gen)

    def test_r2_prime_starves_without_swap_saddles(self):
        truth = full_rank_truth()
        gen = rng.stream(2, "sampler-starve", 0)
        with pytest.raises(SamplerStarved):
            sample_region_ms(truth, MS_R2P, 5, gen)

    def test_r3_starves_in_dimension_one(self):
        gen = rng.stream(3, "sampler-starve-1d", 0)
        with pytest.raises(SamplerStarved):
            sample_region_pr(np.array([1.0]), PR_R3, 5, gen)

    def test_sampling_is_deterministic(self):
        truth = separated_truth()
        a = sample_region_ms(truth, MS_R3P, 10, rng.stream(4, "det", 0))
        b = sample_region_ms(truth, MS_R3P, 10, rng.stream(4, "det", 0))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


# samples per region compared with the serial draws: in MS_R2p and PR_R2 a
# small offset is added to an anchor, which absorbs most last-bit errors of
# the offset, so it takes many samples before one of them shows
SERIAL_DRAWS = 1000


def serial_samples(propose_one, classify, region, n, gen):
    """The first n proposals that classify into the region, each proposal
    built by propose_one(gen) from its own rng calls."""
    out = []
    while len(out) < n:
        x = propose_one(gen)
        if region in classify(x).labels:
            out.append(x)
    return out


def ms_serial_proposer(truth, region):
    """One MS proposal from one rng call per draw, in the order of a row:
    N k Gaussians then a radius (MS_R1, MS_R2p), or a scale then N k
    Gaussians (the others)."""
    thresholds = ms_region_thresholds(truth)
    shape = (truth.dim, truth.target_rank)
    nk = truth.dim * truth.target_rank

    def scaled_gaussian(gen, target):
        g = rng.normal(gen, shape)
        return g * math.sqrt(target / np.linalg.norm(g @ g.T))

    if region == MS_R1:
        anchor = truth.canonical_minimum()

        def propose(gen):
            direction = rng.unit_vector(gen, nk).reshape(shape)
            return anchor + thresholds["r1_radius"] * float(rng.uniform(gen)) * direction

    elif region == MS_R2P:
        selections = itertools.cycle(
            list(itertools.combinations(range(truth.rank), truth.target_rank))[1:]
        )
        rate = 4.0 * (3.0 * float(truth.eigvals[0]) + float(np.linalg.norm(truth.matrix)))
        radius = thresholds["grad_split"] / rate

        def propose(gen):
            anchor = truth.canonical_point(next(selections))
            direction = rng.unit_vector(gen, nk).reshape(shape)
            return anchor + radius * float(rng.uniform(gen)) * direction

    elif region == MS_R3PP:

        def propose(gen):
            scale = 1.0 + 3.0 * float(rng.uniform(gen))
            return scaled_gaussian(gen, thresholds["ball_cap"] * scale)

    else:

        def propose(gen):
            return scaled_gaussian(gen, thresholds["ball_cap"] * float(rng.uniform(gen)))

    return propose


def pr_serial_proposer(signal, region):
    """One PR proposal from one rng call per draw, in the order of a row: a
    radius and a direction (PR_R1, PR_R4); a sign, a radius and a direction
    (PR_R2); a Gaussian saddle direction, a radius and a direction (PR_R3)."""
    dim = signal.shape[0]
    norm_star = float(np.linalg.norm(signal))

    if region == PR_R1:

        def propose(gen):
            radius = PR_R1_RADIUS_FACTOR * norm_star * float(rng.uniform(gen))
            return radius * rng.unit_vector(gen, dim)

    elif region == PR_R2:

        def propose(gen):
            sign = 1.0 if float(rng.uniform(gen)) < 0.5 else -1.0
            radius = PR_R2_RADIUS_FACTOR * norm_star * float(rng.uniform(gen))
            return sign * signal + radius * rng.unit_vector(gen, dim)

    elif region == PR_R3:

        def propose(gen):
            raw = rng.normal(gen, (dim,))
            raw -= (raw @ signal) / norm_star ** 2 * signal
            w = raw / np.linalg.norm(raw)
            radius = PR_R3_RADIUS_FACTOR * norm_star * float(rng.uniform(gen))
            return (norm_star / math.sqrt(3.0)) * w + radius * rng.unit_vector(gen, dim)

    else:

        def propose(gen):
            radius = 1.5 * norm_star * float(rng.uniform(gen)) ** (1.0 / dim)
            return radius * rng.unit_vector(gen, dim)

    return propose


class TestBlockDraws:
    """Proposals are built a block of uniform rows at a time; the samples
    must be those of one rng call per draw, bit for bit, in every region,
    and starvation notes must count the proposals actually made."""

    def test_ms_sampler_reads_the_stream_as_serial_draws(self):
        truth = separated_truth()
        classify = partial(classify_region_ms, truth)
        for region in MS_REGIONS:
            got = sample_region_ms(
                truth, region, SERIAL_DRAWS, rng.stream(5, f"block-{region}", 0)
            )
            want = serial_samples(
                ms_serial_proposer(truth, region),
                classify,
                region,
                SERIAL_DRAWS,
                rng.stream(5, f"block-{region}", 0),
            )
            assert len(got) == len(want) == SERIAL_DRAWS
            for x, y in zip(got, want):
                assert np.array_equal(x, y), region

    def test_pr_sampler_reads_the_stream_as_serial_draws(self):
        classify = partial(classify_region_pr, XSTAR)
        for region in PR_REGIONS:
            got = sample_region_pr(
                XSTAR, region, SERIAL_DRAWS, rng.stream(6, f"block-{region}", 0)
            )
            want = serial_samples(
                pr_serial_proposer(XSTAR, region),
                classify,
                region,
                SERIAL_DRAWS,
                rng.stream(6, f"block-{region}", 0),
            )
            assert len(got) == len(want) == SERIAL_DRAWS
            for x, y in zip(got, want):
                assert np.array_equal(x, y), region

    def test_rejecting_everything_counts_the_whole_budget(self, monkeypatch):
        monkeypatch.setattr(
            landscape, "classify_region_pr", lambda signal, point: RegionLabelSet(frozenset(), {})
        )
        gen = rng.stream(7, "block-starve", 0)
        with pytest.raises(SamplerStarved, match=r": 0 of 5 samples after 5000 proposals$"):
            sample_region_pr(XSTAR, PR_R4, 5, gen)

    @staticmethod
    def every_seventh(monkeypatch):
        """Make classify_region_pr accept every 7th call; returns the call log."""
        calls = []

        def classify(signal, point):
            calls.append(point)
            labels = {PR_R4} if len(calls) % 7 == 0 else set()
            return RegionLabelSet(frozenset(labels), {})

        monkeypatch.setattr(landscape, "classify_region_pr", classify)
        return calls

    def test_budget_ending_mid_block_counts_only_to_the_budget(self, monkeypatch):
        calls = self.every_seventh(monkeypatch)
        monkeypatch.setattr(landscape, "ATTEMPT_FACTOR", 5)
        n = 300
        budget = n * 5
        assert budget % BLOCK != 0  # the budget ends inside a block
        gen = rng.stream(8, "block-straddle", 0)
        with pytest.raises(SamplerStarved) as starved:
            sample_region_pr(XSTAR, PR_R4, n, gen)
        assert str(starved.value).endswith(
            f": {budget // 7} of {n} samples after {budget} proposals"
        )
        assert len(calls) == budget

    def test_ms_classifies_each_proposal_once(self, monkeypatch):
        """One classify_region_ms call per proposal counted in the
        starvation note: the tracer counts proposals by these calls."""
        real = landscape.classify_region_ms
        calls = []

        def counting(truth, point):
            calls.append(point)
            result = real(truth, point)
            return result if len(calls) % 7 == 0 else RegionLabelSet(frozenset(), {})

        monkeypatch.setattr(landscape, "classify_region_ms", counting)
        monkeypatch.setattr(landscape, "ATTEMPT_FACTOR", 5)
        gen = rng.stream(10, "block-count-ms", 0)
        with pytest.raises(SamplerStarved) as starved:
            sample_region_ms(separated_truth(), MS_R3P, 300, gen)
        proposals = re.search(r"after (\d+) proposals$", str(starved.value))
        assert int(proposals.group(1)) == len(calls) == 300 * 5

    def test_classification_stops_at_the_last_accepted_proposal(self, monkeypatch):
        calls = self.every_seventh(monkeypatch)
        n = 10  # the 70th proposal, inside the second block, is the last
        samples = sample_region_pr(XSTAR, PR_R4, n, rng.stream(9, "block-stop", 0))
        assert len(samples) == n
        assert len(calls) == 7 * n


# ---------------------------------------------------------------------------
# bound suites
# ---------------------------------------------------------------------------


class TestRegionBounds:
    def test_ms_suite_clears_on_separated_truth(self):
        truth = separated_truth()
        report = verify_region_bounds_ms(
            truth, RegionSamplerConfig(n_per_region=40, seed=101)
        )
        assert report.all_clear, report.to_json_dict()["checks"]
        assert report.family == "ms"
        table = ms_region_bounds(truth)
        assert [c.region for c in report.checks] == list(MS_REGIONS)
        for region in MS_REGIONS:
            check = report.check(region)
            assert not check.skipped
            assert check.n_sampled == 40
            assert check.worst_margin >= 0.0
            assert (check.bound_kind, check.bound_value) == table[region]

    def test_pr_suite_clears(self):
        report = verify_region_bounds_pr(
            XSTAR, RegionSamplerConfig(n_per_region=40, seed=102)
        )
        assert report.all_clear
        kinds = {c.region: c.bound_kind for c in report.checks}
        assert kinds == {
            PR_R1: "curvature_ceiling",
            PR_R2: "curvature_floor",
            PR_R3: "curvature_ceiling",
            PR_R4: "gradient_floor",
        }
        table = pr_region_bounds(XSTAR)
        assert [c.region for c in report.checks] == list(PR_REGIONS)
        for check in report.checks:
            assert (check.bound_kind, check.bound_value) == table[check.region]

    def test_pr_bound_values_scale_with_signal(self):
        report = verify_region_bounds_pr(
            2.0 * XSTAR, RegionSamplerConfig(n_per_region=5, seed=1)
        )
        n2 = 4.0 * float(XSTAR @ XSTAR)
        assert report.check(PR_R1).bound_value == pytest.approx(-1.5 * n2)
        assert report.check(PR_R2).bound_value == pytest.approx(0.22 * n2)
        assert report.check(PR_R3).bound_value == pytest.approx(-0.78 * n2)
        assert report.check(PR_R4).bound_value == pytest.approx(
            0.3963 * n2**1.5
        )

    def test_ms_full_rank_truth_skips_r2_prime(self):
        truth = full_rank_truth()
        report = verify_region_bounds_ms(
            truth, RegionSamplerConfig(n_per_region=10, seed=5)
        )
        check = report.check(MS_R2P)
        assert check.skipped
        assert "swap saddles" in check.note
        assert check.n_sampled == 0
        # a skipped region contributes no violations
        assert report.all_clear
        # and still names its bound, in strict JSON
        parsed = strict_json(report.to_json_dict())
        (r2p,) = [c for c in parsed["checks"] if c["region"] == MS_R2P]
        assert r2p["worst_margin"] is None
        assert (r2p["bound_kind"], r2p["bound_value"]) == ms_region_bounds(
            truth
        )[MS_R2P]

    def test_pr_dimension_one_skips_r3(self):
        signal = np.array([2.0])
        report = verify_region_bounds_pr(
            signal, RegionSamplerConfig(n_per_region=10, seed=6)
        )
        assert report.check(PR_R3).skipped
        assert report.all_clear
        parsed = strict_json(report.to_json_dict())
        (r3,) = [c for c in parsed["checks"] if c["region"] == PR_R3]
        assert r3["worst_margin"] is None
        assert (r3["bound_kind"], r3["bound_value"]) == pr_region_bounds(signal)[
            PR_R3
        ]

    def test_report_serializes(self):
        report = verify_region_bounds_pr(
            XSTAR, RegionSamplerConfig(n_per_region=5, seed=7)
        )
        blob = json.dumps(report.to_json_dict(), sort_keys=True)
        parsed = json.loads(blob)
        assert parsed["all_clear"] is True
        assert len(parsed["checks"]) == 4

    def test_config_validation(self):
        with pytest.raises(InvalidSampleCount):
            RegionSamplerConfig(n_per_region=0)


# ---------------------------------------------------------------------------
# the bound tables and what reads them
# ---------------------------------------------------------------------------


class TestBoundTables:
    def test_ms_kinds_and_values(self):
        truth = separated_truth()
        lam_k = 1.0
        table = ms_region_bounds(truth)
        assert table[MS_R1] == (CURVATURE_FLOOR, pytest.approx(0.19 * lam_k))
        assert table[MS_R2P] == (CURVATURE_CEILING, pytest.approx(-0.06 * lam_k))
        assert table[MS_R2PP] == (
            GRADIENT_FLOOR,
            ms_region_thresholds(truth)["grad_split"],
        )
        assert table[MS_R3P] == (
            GRADIENT_FLOOR,
            pytest.approx(1.0 / 60.0 / truth.kappa * lam_k**1.5),
        )
        assert table[MS_R3PP] == (
            GRADIENT_FLOOR,
            pytest.approx(5.0 / 84.0 * 2**0.25 * lam_k**1.5),
        )

    @pytest.mark.parametrize(
        "signal", [XSTAR, np.array([1.0, -1.0])], ids=["xstar", "plane"]
    )
    def test_phase_defaults_read_the_table(self, signal):
        table = pr_region_bounds(signal)
        config = default_phase_assumption_config(signal)
        assert config.epsilon == table[PR_R4][1]
        assert config.eta == table[PR_R2][1]

    def test_sensing_defaults_read_the_table(self):
        truth = separated_truth()
        table = ms_region_bounds(truth)
        config = default_sensing_assumption_config(truth)
        floors = [v for kind, v in table.values() if kind == GRADIENT_FLOOR]
        assert len(floors) == 3
        assert config.epsilon == min(floors)
        assert config.eta == -table[MS_R2P][1]
        assert config.ball_radius == ms_region_thresholds(truth)["ball_cap"]


# ---------------------------------------------------------------------------
# empirical-to-population proximity
# ---------------------------------------------------------------------------


class TestCheckAssumptions:
    def test_ball_of_tiny_radius_is_sampled(self, tmp_path):
        # the full-rank test on a sampled factor is scale-free; with an
        # absolute floor every draw in a ball of radius 1e-30 was rejected,
        # and the run never ended. A child process keeps a regression from
        # hanging the suite.
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        args = ["assumptions", "--family", "ms", "--radius", "1e-30", "--samples", "3"]
        done = subprocess.run(
            [sys.executable, "-m", "landscape_lab.cli", *args, "--out", str(tmp_path / "tiny")],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert done.returncode in (0, 2), done.stderr
        report = json.loads((tmp_path / "tiny.json").read_text())["report"]
        assert report["n_samples"] == 3 and report["ball_radius"] == 1e-30

    def test_population_risk_satisfies_its_own_dichotomy(self):
        # empirical == population: deviations vanish, and every sampled
        # small-gradient point must clear the eigenvalue margin
        pop = PrPopulationRisk(XSTAR)
        config = default_phase_assumption_config(XSTAR, n_samples=300, seed=31)
        report = check_assumptions(pop, pop, config)
        assert report.sup_grad_diff_est == 0.0
        assert report.sup_hess_diff_est == 0.0
        assert report.saddle_margin_violations == ()
        assert report.overall_pass
        assert report.verdicts == {
            "gradient_proximity": "PASS",
            "hessian_proximity": "PASS",
            "eigenvalue_margin": "PASS",
        }

    def test_generous_sample_budget_passes_phase_retrieval(self):
        # the Hessian deviation has heavy tails (eighth Gaussian moments),
        # so the half-eta verdict needs a very large measurement count
        problem = generate_phase_problem(XSTAR, n_measurements=1_600_000, seed=41)
        report = check_assumptions(
            PrPopulationRisk(XSTAR),
            PrEmpiricalRisk(problem),
            default_phase_assumption_config(XSTAR, n_samples=60, seed=42),
        )
        assert report.overall_pass, report.to_json_dict()
        assert 0.0 < report.sup_grad_diff_est <= report.epsilon / 2.0
        assert 0.0 < report.sup_hess_diff_est <= report.eta / 2.0
        assert report.small_gradient_count > 0

    def test_deviations_shrink_with_more_measurements(self):
        config = default_phase_assumption_config(XSTAR, n_samples=120, seed=42)
        pop = PrPopulationRisk(XSTAR)
        reports = [
            check_assumptions(
                pop,
                PrEmpiricalRisk(
                    generate_phase_problem(XSTAR, n_measurements=m, seed=41)
                ),
                config,
            )
            for m in (2000, 200_000)
        ]
        assert reports[1].sup_grad_diff_est < reports[0].sup_grad_diff_est
        assert reports[1].sup_hess_diff_est < reports[0].sup_hess_diff_est

    def test_tiny_sample_budget_fails_proximity(self):
        problem = generate_phase_problem(XSTAR, n_measurements=4, seed=43)
        report = check_assumptions(
            PrPopulationRisk(XSTAR),
            PrEmpiricalRisk(problem),
            default_phase_assumption_config(XSTAR, n_samples=120, seed=44),
        )
        assert not report.overall_pass

    def test_margin_violations_are_reported(self):
        # an absurd margin demand turns every sampled small-gradient point
        # into a violation
        pop = PrPopulationRisk(XSTAR)
        norm3 = float(np.linalg.norm(XSTAR)) ** 3
        config = AssumptionConfig(
            epsilon=1e6 * norm3,
            eta=1e9,
            ball_radius=1.1 * float(np.linalg.norm(XSTAR)),
            n_samples=50,
            seed=45,
        )
        report = check_assumptions(pop, pop, config)
        assert report.small_gradient_count == 50
        assert len(report.saddle_margin_violations) == 50
        assert report.verdicts["eigenvalue_margin"] == "FAIL"
        entry = report.saddle_margin_violations[0]
        assert set(entry) == {"point_row_major", "lambda_min", "grad_norm"}

    def test_matrix_sensing_population_self_check(self):
        truth = separated_truth(n=5, seed=13)
        pop = MsPopulationRisk(truth)
        config = default_sensing_assumption_config(truth, n_samples=60, seed=46)
        report = check_assumptions(pop, pop, config)
        assert report.sup_grad_diff_est == 0.0
        assert report.sup_hess_diff_est == 0.0
        assert report.saddle_margin_violations == ()

    def test_matrix_sensing_empirical_with_many_measurements(self):
        truth = separated_truth(n=5, seed=14)
        ensemble = generate_sensing_ensemble(truth, n_measurements=6000, seed=47)
        report = check_assumptions(
            MsPopulationRisk(truth),
            MsEmpiricalRisk(ensemble),
            default_sensing_assumption_config(truth, n_samples=40, seed=48),
        )
        assert report.verdicts["eigenvalue_margin"] == "PASS"
        assert report.sup_grad_diff_est > 0.0

    def test_config_gates(self):
        with pytest.raises(InvalidConfig):
            AssumptionConfig(epsilon=0.0, eta=1.0, ball_radius=1.0)
        with pytest.raises(InvalidConfig):
            AssumptionConfig(epsilon=1.0, eta=-1.0, ball_radius=1.0)
        with pytest.raises(InvalidConfig):
            AssumptionConfig(epsilon=1.0, eta=1.0, ball_radius=0.0)
        with pytest.raises(InvalidSampleCount):
            AssumptionConfig(epsilon=1.0, eta=1.0, ball_radius=1.0, n_samples=0)

    def test_shape_mismatch_rejected(self):
        config = AssumptionConfig(epsilon=1.0, eta=1.0, ball_radius=1.0, n_samples=1)
        with pytest.raises(InvalidConfig):
            check_assumptions(
                PrPopulationRisk(XSTAR), PrPopulationRisk(np.ones(4)), config
            )

    def test_default_configs_wire_the_scales(self):
        norm_star = float(np.linalg.norm(XSTAR))
        config = default_phase_assumption_config(XSTAR)
        assert config.epsilon == pytest.approx(0.3963 * norm_star**3)
        assert config.eta == pytest.approx(0.22 * norm_star**2)
        assert config.ball_radius == pytest.approx(1.1 * norm_star)
        assert config.n_samples == 2000

        truth = separated_truth()
        ms_config = default_sensing_assumption_config(truth)
        lam_k = 1.0
        expected_eps = min(
            1.0 / 80.0, 1.0 / 60.0 / truth.kappa, 5.0 / 84.0 * 2**0.25
        ) * lam_k**1.5
        assert ms_config.epsilon == pytest.approx(expected_eps)
        assert ms_config.eta == pytest.approx(0.06 * lam_k)
        assert ms_config.ball_radius == pytest.approx(
            8.0 / 7.0 * math.hypot(1.3, 1.0)
        )

    def test_report_serializes(self):
        pop = PrPopulationRisk(XSTAR)
        config = default_phase_assumption_config(XSTAR, n_samples=5, seed=49)
        blob = json.dumps(check_assumptions(pop, pop, config).to_json_dict())
        parsed = json.loads(blob)
        assert parsed["overall_pass"] is True
        assert "Monte-Carlo" in parsed["caveat"]


# ---------------------------------------------------------------------------
# restricted isometry
# ---------------------------------------------------------------------------


class TestRip:
    def make_ensemble(self, m, seed=51, n=4):
        truth = SensingGroundTruth.from_random_basis(
            dim=n, eigvals=(1.0, 0.5), target_rank=1, seed=8
        )
        return generate_sensing_ensemble(truth, n_measurements=m, seed=seed)

    def test_rank_gate(self):
        ensemble = self.make_ensemble(m=50)
        with pytest.raises(InvalidRank):
            estimate_rip(ensemble, rank_bound=0, n_probes=10, seed=1)
        with pytest.raises(InvalidRank):
            estimate_rip(ensemble, rank_bound=5, n_probes=10, seed=1)
        with pytest.raises(InvalidSampleCount):
            estimate_rip(ensemble, rank_bound=2, n_probes=0, seed=1)

    def test_deterministic(self):
        ensemble = self.make_ensemble(m=80)
        a = estimate_rip(ensemble, rank_bound=2, n_probes=50, seed=9)
        b = estimate_rip(ensemble, rank_bound=2, n_probes=50, seed=9)
        assert a.delta_est == b.delta_est
        assert a.to_json_dict() == b.to_json_dict()

    def test_defect_shrinks_with_more_measurements(self):
        small, large = [], []
        for seed in range(6):
            small.append(
                estimate_rip(
                    self.make_ensemble(m=100, seed=60 + seed),
                    rank_bound=2,
                    n_probes=100,
                    seed=seed,
                ).delta_est
            )
            large.append(
                estimate_rip(
                    self.make_ensemble(m=1600, seed=80 + seed),
                    rank_bound=2,
                    n_probes=100,
                    seed=seed,
                ).delta_est
            )
        assert np.mean(large) < np.mean(small)

    def test_big_ensemble_is_nearly_isometric(self):
        report = estimate_rip(
            self.make_ensemble(m=20000), rank_bound=2, n_probes=60, seed=10
        )
        assert report.delta_est < 0.2

    def test_threshold_caps_at_one_over_36(self):
        truth = separated_truth()
        assert rip_delta_threshold(truth, epsilon=1e9, eta=1e9) == pytest.approx(
            1.0 / 36.0
        )

    def test_threshold_linear_in_epsilon_when_gradient_binds(self):
        truth = separated_truth()
        lo = rip_delta_threshold(truth, epsilon=1e-6, eta=1e9)
        hi = rip_delta_threshold(truth, epsilon=2e-6, eta=1e9)
        assert hi == pytest.approx(2.0 * lo, rel=1e-12)

    def test_threshold_formula_frozen_instance(self):
        # identity-basis truth, eigvals (1, 1), k = 2: both norms are sqrt(2)
        eye_truth = SensingGroundTruth(
            eigvecs=np.eye(4)[:, :2], eigvals=np.array([1.0, 1.0]), target_rank=2
        )
        top = math.sqrt(2.0)
        eps, eta = 0.01, 0.02
        expected_grad = eps / (
            2.0
            * math.sqrt(8.0 / 7.0)
            * 2.0**0.25
            * ((8.0 / 7.0) * top + top)
            * top**0.5
        )
        expected_hess = eta / (
            2.0 * ((16.0 / 7.0) * math.sqrt(2.0) * top + (8.0 / 7.0) * top + top)
        )
        assert rip_delta_threshold(eye_truth, eps, eta) == pytest.approx(
            min(expected_grad, 1.0 / 36.0, expected_hess), rel=1e-12
        )

    def test_threshold_gate(self):
        with pytest.raises(InvalidConfig):
            rip_delta_threshold(separated_truth(), epsilon=0.0, eta=1.0)

    def test_report_shape(self):
        report = estimate_rip(
            self.make_ensemble(m=200), rank_bound=2, n_probes=20, seed=12
        )
        parsed = json.loads(json.dumps(report.to_json_dict()))
        assert parsed["rank_bound"] == 2
        assert parsed["n_probes"] == 20
        assert parsed["within_threshold"] == (
            parsed["delta_est"] <= parsed["delta_threshold"]
        )
        assert parsed["delta_threshold"] <= 1.0 / 36.0

    def test_rank_one_probes_are_rank_one(self):
        # rank bound 1 uses a single positive factor and no negative block
        ensemble = self.make_ensemble(m=500)
        report = estimate_rip(ensemble, rank_bound=1, n_probes=40, seed=13)
        assert report.rank_bound == 1
        assert report.delta_est >= 0.0
