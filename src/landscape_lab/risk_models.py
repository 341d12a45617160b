"""Risk functions for symmetric matrix sensing and phase retrieval.

Four models share one interface: the population and empirical risks of
rank-r PSD matrix sensing over N x k factors, and of phase retrieval over
R^N. Population risks are exact Gaussian expectations of their empirical
counterparts, which is what the expectation-consistency tests pin down.

Matrix sensing: X = W diag(lambda) W^T is the rank-r truth, measurements are
y_m = <X, A_m> with A_m the symmetrized Gaussian B_m, and the factor U is
N x k with ceil(r/2) <= k <= r, so UU^T can only underfit the rank.

Phase retrieval: y_m = <a_m, x*>^2 with standard normal a_m; the population
risk is ||xx^T - x*x*^T||_F^2 + (||x||^2 - ||x*||^2)^2 / 2.

Both empirical risks are quadratic in an N x N residual Z (UU^T - X, or
xx^T - x*x*^T), through the N^2 x N^2 Gram matrix G of the rows vec(A_m),
or vec(a_m a_m^T) / sqrt(M). Each ensemble keeps a square-root factor C with
C^T C = G, so the risk is the sum of squares ||C vec Z||^2, never negative,
and costs the same at every M. hess_vec takes one direction or a stack of
them along a leading axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .errors import (
    DimensionMismatch,
    InvalidConfig,
    InvalidRank,
    InvalidSampleCount,
    NonFiniteEntry,
    ZeroTruthSignal,
)
from .manifold import procrustes_distance

MEASUREMENT_RECOMPUTE_RTOL = 1e-12
EIGENVALUE_CLUSTER_RTOL = 1e-9


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def _gram_root(gram: np.ndarray) -> np.ndarray:
    """C = diag(sqrt(w)) V^T from G = V diag(w) V^T, so that C^T C = G.

    Eigenvalue noise below zero, from a singular G, is clipped to zero.
    """
    w, v = np.linalg.eigh(gram)
    return _frozen(np.sqrt(np.maximum(w, 0.0))[:, None] * v.T)


def _root_coords(root: np.ndarray, z: np.ndarray) -> np.ndarray:
    # C vec(Z) for one N x N matrix or a stack along leading axes
    return z.reshape(*z.shape[:-2], -1) @ root.T


def _root_energy(root: np.ndarray, z: np.ndarray) -> np.ndarray:
    """||C vec(Z)||^2, a sum of squares, per N x N matrix of z."""
    coords = _root_coords(root, z)
    return (coords * coords).sum(axis=-1)


def _root_normal(root: np.ndarray, z: np.ndarray) -> np.ndarray:
    """C^T C vec(Z), reshaped like z."""
    return (_root_coords(root, z) @ root).reshape(z.shape)


# ---------------------------------------------------------------------------
# ground truths and measurement containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SensingGroundTruth:
    """Rank-r PSD target X = W diag(eigvals) W^T with a factor rank budget.

    eigvecs is N x r with orthonormal columns, eigvals is strictly positive
    and non-increasing, and target_rank k obeys ceil(r/2) <= k <= r. The
    underparameterized regime k < r is allowed on purpose; whether the
    discarded tail is small enough for a benign landscape is reported by
    well_separated (lambda_{k+1} <= lambda_k / 12, vacuously true at k = r).
    """

    eigvecs: np.ndarray
    eigvals: np.ndarray
    target_rank: int

    def __post_init__(self):
        w = np.asarray(self.eigvecs, dtype=float)
        lam = np.asarray(self.eigvals, dtype=float)
        if w.ndim != 2:
            raise DimensionMismatch(f"eigvecs must be 2-d, got shape {w.shape}")
        n, r = w.shape
        if lam.ndim != 1 or lam.shape[0] != r:
            raise DimensionMismatch(
                f"eigvals must have length {r}, got shape {lam.shape}"
            )
        if n < r or r < 1:
            raise InvalidRank(f"need dim >= rank >= 1, got dim {n}, rank {r}")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(lam))):
            raise NonFiniteEntry("ground truth entries must be finite")
        if np.any(lam <= 0.0):
            raise ZeroTruthSignal("eigenvalues must be strictly positive")
        if np.any(np.diff(lam) > 0.0):
            raise InvalidConfig("eigenvalues must be non-increasing")
        ortho_defect = np.linalg.norm(w.T @ w - np.eye(r))
        if ortho_defect > 1e-10:
            raise InvalidConfig(
                f"eigvecs must be orthonormal, defect {ortho_defect:.3e}"
            )
        k = int(self.target_rank)
        if not (math.ceil(r / 2) <= k <= r):
            raise InvalidRank(
                f"target rank {k} outside [ceil(r/2), r] = "
                f"[{math.ceil(r / 2)}, {r}]"
            )
        object.__setattr__(self, "eigvecs", _frozen(w))
        object.__setattr__(self, "eigvals", _frozen(lam))
        object.__setattr__(self, "target_rank", k)

    @classmethod
    def from_random_basis(
        cls, dim: int, eigvals, target_rank: int, seed: int
    ) -> "SensingGroundTruth":
        """Truth with a seeded random orthonormal eigenbasis."""
        lam = np.asarray(eigvals, dtype=float)
        gauss = rng.normal(rng.stream(seed, "truth-basis", 0), (dim, lam.shape[0]))
        q, rr = np.linalg.qr(gauss)
        q = q * np.sign(np.diag(rr))  # fix the QR sign convention
        return cls(q, lam, target_rank)

    @property
    def dim(self) -> int:
        return self.eigvecs.shape[0]

    @property
    def rank(self) -> int:
        return self.eigvecs.shape[1]

    @property
    def matrix(self) -> np.ndarray:
        return (self.eigvecs * self.eigvals) @ self.eigvecs.T

    @property
    def kappa(self) -> float:
        return float(np.sqrt(self.eigvals[0] / self.eigvals[self.target_rank - 1]))

    @property
    def well_separated(self) -> bool:
        """Tail gap condition lambda_{k+1} <= lambda_k / 12, vacuous at k = r."""
        k = self.target_rank
        if k == self.rank:
            return True
        return bool(self.eigvals[k] <= self.eigvals[k - 1] / 12.0)

    def canonical_minimum(self) -> np.ndarray:
        """The top-k selection W_k diag(sqrt(lambda_k)), gauge Q = I."""
        k = self.target_rank
        return self.eigvecs[:, :k] * np.sqrt(self.eigvals[:k])

    def canonical_point(self, selection) -> np.ndarray:
        """Critical factor for an arbitrary k-subset of eigendirections."""
        idx = list(selection)
        if len(idx) != self.target_rank:
            raise InvalidRank(
                f"selection must pick {self.target_rank} directions, got {len(idx)}"
            )
        return self.eigvecs[:, idx] * np.sqrt(self.eigvals[idx])

    def eigenvalue_clusters(self) -> list[list[int]]:
        """Indices grouped by relative gaps below EIGENVALUE_CLUSTER_RTOL."""
        clusters: list[list[int]] = [[0]]
        for i in range(1, self.rank):
            gap = self.eigvals[i - 1] - self.eigvals[i]
            if gap <= EIGENVALUE_CLUSTER_RTOL * self.eigvals[0]:
                clusters[-1].append(i)
            else:
                clusters.append([i])
        return clusters

    @property
    def boundary_multiplicity(self) -> str:
        """How eigenvalue ties interact with the rank budget at index k.

        "clean": the cluster containing lambda_k stays inside the top k, so
        the population minima form a single gauge orbit. "uniform_top": the
        whole top block through lambda_k is one cluster extending past k, so
        the minima form a Stiefel continuum with a closed-form distance.
        "mixed": ties straddle the boundary without covering the top block;
        flagged, and distances fall back to the canonical orbit.
        """
        k = self.target_rank
        for cluster in self.eigenvalue_clusters():
            if k - 1 in cluster:
                if cluster[-1] <= k - 1:
                    return "clean"
                if cluster[0] == 0:
                    return "uniform_top"
                return "mixed"
        raise AssertionError("unreachable: index k-1 must lie in some cluster")

    def minimum_set_distance(self, u) -> float:
        """Distance from U to the set of population minimizers.

        For a clean boundary this is the Procrustes distance to the canonical
        minimum. When the top block is degenerate through the boundary, the
        minimizers sweep a Stiefel manifold inside the top eigenspace and the
        distance has a closed form through the nuclear norm of E^T U.
        """
        u_mat = np.asarray(u, dtype=float)
        k = self.target_rank
        if u_mat.shape != (self.dim, k):
            raise DimensionMismatch(
                f"expected factor of shape {(self.dim, k)}, got {u_mat.shape}"
            )
        if self.boundary_multiplicity == "uniform_top":
            cluster = next(c for c in self.eigenvalue_clusters() if 0 in c)
            basis = self.eigvecs[:, cluster]
            lam_bar = float(np.mean(self.eigvals[cluster]))
            nuclear = float(np.sum(np.linalg.svd(basis.T @ u_mat, compute_uv=False)))
            sq = (
                np.linalg.norm(u_mat) ** 2
                + k * lam_bar
                - 2.0 * np.sqrt(lam_bar) * nuclear
            )
            return float(np.sqrt(max(sq, 0.0)))
        return procrustes_distance(u_mat, self.canonical_minimum())


@dataclass(frozen=True)
class SensingEnsemble:
    """A batch of Gaussian sensing matrices and their measurements.

    raw holds the unsymmetrized B_m with i.i.d. N(0, 1/M) entries and
    measurements the values <X, A_m>, A_m = (B_m + B_m^T) / 2. The seed fully
    determines raw, so measurements can be recomputed and checked bit-close
    from (truth, seed). gram_root is a square-root factor C of the N^2 x N^2
    Gram matrix G = sum_m vec(A_m) vec(A_m)^T of A*A, built once, so energy
    and normal cost the same at every M.
    """

    truth: SensingGroundTruth
    raw: np.ndarray
    measurements: np.ndarray
    seed: int
    gram_root: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = self.truth.dim
        raw = _frozen(self.raw)
        y = _frozen(self.measurements)
        m = raw.shape[0] if raw.ndim == 3 else -1
        if raw.shape != (m, n, n) or m < 1:
            raise DimensionMismatch(f"raw must be (M, {n}, {n}), got {raw.shape}")
        if y.shape != (m,):
            raise DimensionMismatch(f"measurements must be ({m},)")
        if not (np.all(np.isfinite(raw)) and np.all(np.isfinite(y))):
            raise NonFiniteEntry("sensing matrices and measurements must be finite")
        object.__setattr__(self, "raw", raw)
        object.__setattr__(self, "measurements", y)
        # rows are 2 vec(A_m), hence the 1/4; the M x N^2 stack is not kept
        stack = (raw + np.transpose(raw, (0, 2, 1))).reshape(m, n * n)
        object.__setattr__(self, "gram_root", _gram_root(0.25 * (stack.T @ stack)))

    @property
    def n_measurements(self) -> int:
        return self.raw.shape[0]

    def apply(self, z: np.ndarray) -> np.ndarray:
        """A(Z) = (<A_m, Z>)_m, the exact sum over the stored stack."""
        return np.einsum("mij,ij->m", self.raw, 0.5 * (z + z.T))

    def energy(self, z: np.ndarray) -> float:
        """||A(Z)||^2 as ||C vec(Z)||^2."""
        return float(_root_energy(self.gram_root, z))

    def normal(self, z: np.ndarray) -> np.ndarray:
        """A*A(Z) as C^T C vec(Z), for one N x N matrix or a stack."""
        return _root_normal(self.gram_root, z)

    def to_json_dict(self) -> dict:
        n, r = self.truth.dim, self.truth.rank
        return {
            "kind": "sensing_ensemble",
            "seed": int(self.seed),
            "dims": {
                "n": n,
                "r": r,
                "k": self.truth.target_rank,
                "m": self.n_measurements,
            },
            "eigvals": self.truth.eigvals.tolist(),
            "eigvecs_row_major": self.truth.eigvecs.ravel().tolist(),
            "raw_row_major": self.raw.ravel().tolist(),
            "measurements": self.measurements.tolist(),
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SensingEnsemble":
        dims = doc["dims"]
        truth = SensingGroundTruth(
            np.array(doc["eigvecs_row_major"], dtype=float).reshape(
                dims["n"], dims["r"]
            ),
            np.array(doc["eigvals"], dtype=float),
            dims["k"],
        )
        raw = np.array(doc["raw_row_major"], dtype=float).reshape(
            dims["m"], dims["n"], dims["n"]
        )
        stored = np.array(doc["measurements"], dtype=float)
        ensemble = cls(truth, raw, stored, doc["seed"])
        recomputed = ensemble.apply(truth.matrix)
        scale = max(np.linalg.norm(stored), 1e-300)
        # negated <= so that a NaN anywhere in the document fails the check
        if not np.linalg.norm(recomputed - stored) <= MEASUREMENT_RECOMPUTE_RTOL * scale:
            raise NonFiniteEntry(
                "stored measurements are non-finite or disagree with the "
                "recomputed values"
            )
        return ensemble


def generate_sensing_ensemble(
    truth: SensingGroundTruth, n_measurements: int, seed: int
) -> SensingEnsemble:
    """Draw B_m with N(0, 1/M) entries, symmetrize, and measure the truth."""
    m = int(n_measurements)
    if m < 1:
        raise InvalidSampleCount(f"need at least one measurement, got {n_measurements}")
    gen = rng.stream(seed, "sensing-ensemble", 0)
    raw = rng.normal(gen, (m, truth.dim, truth.dim)) / np.sqrt(m)
    measurements = np.einsum("mij,ij->m", raw, truth.matrix)
    return SensingEnsemble(truth, raw, measurements, int(seed))


@dataclass(frozen=True)
class PhaseProblem:
    """Phaseless measurements y_m = <a_m, x*>^2 of a nonzero signal.

    Construction rechecks y against (A x*)^2, so the empirical risk may read
    x* in place of y. gram_root is a square-root factor C of the N^2 x N^2
    Gram matrix G = (1/M) sum_m vec(a_m a_m^T) vec(a_m a_m^T)^T, the
    empirical fourth moment of the sensing vectors, built once, so energy
    and normal cost the same at every M.
    """

    signal: np.ndarray
    vectors: np.ndarray
    measurements: np.ndarray
    seed: int
    gram_root: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        x = np.asarray(self.signal, dtype=float)
        a = np.asarray(self.vectors, dtype=float)
        y = np.asarray(self.measurements, dtype=float)
        if x.ndim != 1:
            raise DimensionMismatch(f"signal must be 1-d, got shape {x.shape}")
        if np.linalg.norm(x) == 0.0:
            raise ZeroTruthSignal("phase retrieval needs a nonzero signal")
        n = x.shape[0]
        m = a.shape[0] if a.ndim == 2 else -1
        if a.shape != (m, n) or m < 1:
            raise DimensionMismatch(f"vectors must be (M, {n}), got {a.shape}")
        if y.shape != (m,):
            raise DimensionMismatch("measurements must be (M,)")
        recomputed = (a @ x) ** 2
        scale = max(np.linalg.norm(y), 1e-300)
        # negated <= so that a NaN anywhere fails the check
        if not np.linalg.norm(recomputed - y) <= MEASUREMENT_RECOMPUTE_RTOL * scale:
            raise NonFiniteEntry(
                "measurements are non-finite or disagree with (A x*)^2"
            )
        object.__setattr__(self, "signal", _frozen(x))
        object.__setattr__(self, "vectors", _frozen(a))
        object.__setattr__(self, "measurements", _frozen(y))
        stack = (a[:, :, None] * a[:, None, :]).reshape(m, n * n)
        object.__setattr__(self, "gram_root", _gram_root((stack.T @ stack) / m))

    @property
    def dim(self) -> int:
        return self.signal.shape[0]

    @property
    def n_measurements(self) -> int:
        return self.vectors.shape[0]

    def energy(self, z: np.ndarray) -> float:
        """(1/M) sum_m <a_m a_m^T, Z>^2 as ||C vec(Z)||^2."""
        return float(_root_energy(self.gram_root, z))

    def normal(self, z: np.ndarray) -> np.ndarray:
        """(1/M) sum_m <a_m a_m^T, Z> a_m a_m^T as C^T C vec(Z)."""
        return _root_normal(self.gram_root, z)

    def to_json_dict(self) -> dict:
        return {
            "kind": "phase_problem",
            "seed": int(self.seed),
            "dims": {"n": self.dim, "m": self.n_measurements},
            "signal": self.signal.tolist(),
            "vectors_row_major": self.vectors.ravel().tolist(),
            "measurements": self.measurements.tolist(),
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "PhaseProblem":
        dims = doc["dims"]
        vectors = np.array(doc["vectors_row_major"], dtype=float).reshape(
            dims["m"], dims["n"]
        )
        return cls(
            np.array(doc["signal"], dtype=float),
            vectors,
            np.array(doc["measurements"], dtype=float),
            doc["seed"],
        )


def generate_phase_problem(signal, n_measurements: int, seed: int) -> PhaseProblem:
    """Draw standard normal sensing vectors and square the projections."""
    x = np.asarray(signal, dtype=float)
    m = int(n_measurements)
    if m < 1:
        raise InvalidSampleCount(f"need at least one measurement, got {n_measurements}")
    if x.ndim != 1 or np.linalg.norm(x) == 0.0:
        raise ZeroTruthSignal("phase retrieval needs a nonzero 1-d signal")
    gen = rng.stream(seed, "phase-problem", 0)
    vectors = rng.normal(gen, (m, x.shape[0]))
    measurements = (vectors @ x) ** 2
    return PhaseProblem(x, vectors, measurements, int(seed))


# ---------------------------------------------------------------------------
# risk models
# ---------------------------------------------------------------------------


class RiskModel:
    """Common interface: value, Euclidean gradient, Hessian action and form.

    hess_quadratic(p, d) must equal <hess_vec(p, d), d>; both are exact
    derivatives of value, which the finite-difference suites verify. For
    factor models the Euclidean gradient is automatically horizontal.
    hess_vec also takes a (p, *shape) stack of directions and returns the
    (p, *shape) stack of their images.
    """

    is_factor = False

    @property
    def shape(self) -> tuple[int, ...]:
        raise NotImplementedError

    def value(self, point) -> float:
        raise NotImplementedError

    def euclidean_grad(self, point) -> np.ndarray:
        raise NotImplementedError

    def hess_vec(self, point, direction) -> np.ndarray:
        raise NotImplementedError

    def hess_quadratic(self, point, direction) -> float:
        return float(np.vdot(self.hess_vec(point, direction), direction))

    # scale hooks used by solvers and tolerance policies
    @property
    def hessian_scale(self) -> float:
        raise NotImplementedError

    @property
    def domain_scale(self) -> float:
        raise NotImplementedError

    @property
    def value_scale(self) -> float:
        raise NotImplementedError

    def _coerce(self, point) -> np.ndarray:
        arr = np.asarray(point, dtype=float)
        if arr.shape != self.shape:
            raise DimensionMismatch(
                f"point shape {arr.shape} does not match model shape {self.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise NonFiniteEntry("point entries must be finite")
        return arr


class _SensingRisk(RiskModel):
    is_factor = True

    def __init__(self, truth: SensingGroundTruth):
        self.truth = truth
        self._target = truth.matrix

    @property
    def shape(self) -> tuple[int, int]:
        return (self.truth.dim, self.truth.target_rank)

    @property
    def hessian_scale(self) -> float:
        return float(self.truth.eigvals[self.truth.target_rank - 1])

    @property
    def domain_scale(self) -> float:
        return float(np.sqrt(self.truth.eigvals[0]))

    @property
    def value_scale(self) -> float:
        # risk at the origin
        return 0.25 * float(np.linalg.norm(self._target) ** 2)


class MsPopulationRisk(_SensingRisk):
    """g(U) = 1/4 ||UU^T - X||_F^2."""

    def value(self, point) -> float:
        u = self._coerce(point)
        return 0.25 * float(np.linalg.norm(u @ u.T - self._target) ** 2)

    def euclidean_grad(self, point) -> np.ndarray:
        u = self._coerce(point)
        return (u @ u.T - self._target) @ u

    def hess_vec(self, point, direction) -> np.ndarray:
        u = self._coerce(point)
        d = np.asarray(direction, dtype=float)
        sym = u @ np.swapaxes(d, -1, -2) + d @ u.T
        return sym @ u + (u @ u.T - self._target) @ d

    def hess_quadratic(self, point, direction) -> float:
        u = self._coerce(point)
        d = np.asarray(direction, dtype=float)
        sym = u @ d.T + d @ u.T
        residual = u @ u.T - self._target
        return 0.5 * float(np.linalg.norm(sym) ** 2) + float(np.vdot(residual, d @ d.T))


class MsEmpiricalRisk(_SensingRisk):
    """f(U) = 1/4 ||A(UU^T - X)||_2^2 for a fixed sensing ensemble."""

    def __init__(self, ensemble: SensingEnsemble):
        super().__init__(ensemble.truth)
        self.ensemble = ensemble

    def _normal_residual(self, u: np.ndarray) -> np.ndarray:
        # A*A applied to the residual UU^T - X, formed first so nothing
        # cancels at the minimum
        return self.ensemble.normal(u @ u.T - self._target)

    def value(self, point) -> float:
        u = self._coerce(point)
        return 0.25 * self.ensemble.energy(u @ u.T - self._target)

    def euclidean_grad(self, point) -> np.ndarray:
        u = self._coerce(point)
        return self._normal_residual(u) @ u

    def hess_vec(self, point, direction) -> np.ndarray:
        u = self._coerce(point)
        d = np.asarray(direction, dtype=float)
        sym = u @ np.swapaxes(d, -1, -2) + d @ u.T
        return self.ensemble.normal(sym) @ u + self._normal_residual(u) @ d

    def hess_quadratic(self, point, direction) -> float:
        u = self._coerce(point)
        d = np.asarray(direction, dtype=float)
        sym = u @ d.T + d @ u.T
        return 0.5 * self.ensemble.energy(sym) + float(
            np.vdot(self._normal_residual(u), d @ d.T)
        )


class _PhaseRisk(RiskModel):
    is_factor = False

    def __init__(self, signal):
        x = np.asarray(signal, dtype=float)
        if x.ndim != 1 or np.linalg.norm(x) == 0.0:
            raise ZeroTruthSignal("phase retrieval needs a nonzero 1-d signal")
        self.signal = _frozen(x)

    @property
    def shape(self) -> tuple[int]:
        return self.signal.shape

    @property
    def hessian_scale(self) -> float:
        return float(np.linalg.norm(self.signal) ** 2)

    @property
    def domain_scale(self) -> float:
        return float(np.linalg.norm(self.signal))

    @property
    def value_scale(self) -> float:
        return 1.5 * float(np.linalg.norm(self.signal) ** 4)


class PrPopulationRisk(_PhaseRisk):
    """g(x) = ||xx^T - x*x*^T||_F^2 + (||x||^2 - ||x*||^2)^2 / 2."""

    def value(self, point) -> float:
        x = self._coerce(point)
        xs = self.signal
        nx2 = float(x @ x)
        ns2 = float(xs @ xs)
        cross = float(x @ xs)
        rank_one = nx2 ** 2 + ns2 ** 2 - 2.0 * cross ** 2
        return rank_one + 0.5 * (nx2 - ns2) ** 2

    def euclidean_grad(self, point) -> np.ndarray:
        x = self._coerce(point)
        xs = self.signal
        return 6.0 * float(x @ x) * x - 2.0 * float(xs @ xs) * x - 4.0 * float(x @ xs) * xs

    def hess_matrix(self, point) -> np.ndarray:
        x = self._coerce(point)
        xs = self.signal
        n = x.shape[0]
        return (
            12.0 * np.outer(x, x)
            - 4.0 * np.outer(xs, xs)
            + (6.0 * float(x @ x) - 2.0 * float(xs @ xs)) * np.eye(n)
        )

    def hess_vec(self, point, direction) -> np.ndarray:
        x = self._coerce(point)
        xs = self.signal
        d = np.asarray(direction, dtype=float)
        return (
            12.0 * (d @ x)[..., None] * x
            - 4.0 * (d @ xs)[..., None] * xs
            + (6.0 * float(x @ x) - 2.0 * float(xs @ xs)) * d
        )


class PrEmpiricalRisk(_PhaseRisk):
    """f(x) = (1/2M) sum_m (<a_m, x>^2 - y_m)^2 for fixed measurements.

    Since <a_m, x>^2 - y_m = <a_m a_m^T, R> with R = xx^T - x*x*^T, the
    risk is energy(R) / 2 through the problem's Gram factor: value, gradient
    and hess_vec read x* and gram_root, never the vectors or measurements.
    R is formed first, so nothing cancels at the minimum. hess_matrix stays
    the exact sum over the M vectors, as an independent oracle.
    """

    def __init__(self, problem: PhaseProblem):
        super().__init__(problem.signal)
        self.problem = problem

    def _residual(self, x: np.ndarray) -> np.ndarray:
        return np.outer(x, x) - np.outer(self.signal, self.signal)

    def value(self, point) -> float:
        x = self._coerce(point)
        return 0.5 * self.problem.energy(self._residual(x))

    def euclidean_grad(self, point) -> np.ndarray:
        x = self._coerce(point)
        return 2.0 * (self.problem.normal(self._residual(x)) @ x)

    def hess_matrix(self, point) -> np.ndarray:
        x = self._coerce(point)
        a = self.problem.vectors
        z = a @ x
        diag = 3.0 * z ** 2 - self.problem.measurements
        return (2.0 / self.problem.n_measurements) * (a.T * diag) @ a

    def hess_vec(self, point, direction) -> np.ndarray:
        x = self._coerce(point)
        d = np.asarray(direction, dtype=float)
        dx = d[..., :, None] * x
        # d @ N(R)^T is N(R) d for one direction and for each of a stack
        return 2.0 * (
            self.problem.normal(dx + np.swapaxes(dx, -1, -2)) @ x
            + d @ self.problem.normal(self._residual(x)).T
        )
