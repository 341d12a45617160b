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

All four risks are one quartic form, c <R, N(R)> in the residual
R = UU^T - X (xx^T - x*x*^T for phase retrieval, whose vector is an N x 1
factor inside the form), implemented once in RiskModel; the models differ
only in the operator N and the constant c. The population N is the
expectation of the empirical one: the identity for matrix sensing, and
2Z + tr(Z) I, the Gaussian fourth moment, for phase retrieval. The
empirical N is the N^2 x N^2 Gram matrix G of the rows vec(A_m), or
vec(a_m a_m^T) / sqrt(M). Both ensembles (SensingEnsemble, PhaseProblem)
share one base that keeps a square-root factor C with C^T C = G, so the risk
is the sum of squares ||C vec Z||^2, never negative, and G itself, formed
once as C^T C, so the normal image G vec Z is one product. Both cost the
same at every M. hess_vec takes one direction or a stack of them along a
leading axis. All four risks also take a (B, *shape) stack of points in
euclidean_grad and hess_vec, each item bit for bit the value at that point
alone.

An ensemble is (truth or signal, M, seed) plus those two factors; each
supplies only how its G is summed and how its draw is read. G is
accumulated over blocks of CHUNK measurements of the seeded draw, so memory
does not depend on M. The draw itself (raw, vectors) and the measurements
are regenerated from (seed, M), block by block, whenever they are read; the
blocks consume the stream in order, so they equal a one-shot draw bit for
bit.
"""

from __future__ import annotations

import functools
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

EIGENVALUE_CLUSTER_RTOL = 1e-9
CHUNK = 2048  # measurements per block of a seeded draw


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def _gram_factors(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(C, C^T C) with C = diag(sqrt(w)) V^T from G = V diag(w) V^T.

    Eigenvalue noise below zero, from a singular G, is clipped to zero.
    The returned Gram matrix is rebuilt from C, so that G vec Z stays the
    exact derivative of ||C vec Z||^2 / 2 after the clipping.
    """
    w, v = np.linalg.eigh(gram)
    root = _frozen(np.sqrt(np.maximum(w, 0.0))[:, None] * v.T)
    return root, _frozen(root.T @ root)


def _summed_gram(stacks) -> np.ndarray:
    """sum_c S_c^T S_c over blocks of rows; one block gives S^T S exactly."""
    return functools.reduce(np.add, (s.T @ s for s in stacks))


def _vec(z: np.ndarray) -> np.ndarray:
    # vec(Z) for one N x N matrix or a stack along leading axes
    return z.reshape(*z.shape[:-2], -1)


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

    The truth is frozen, so the values derived from it (matrix, kappa,
    well_separated, boundary_multiplicity and the canonical minimum) are
    computed on first use and kept; the kept arrays are read-only.
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
        if not (np.isfinite(w).all() and np.isfinite(lam).all()):
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

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        return _frozen((self.eigvecs * self.eigvals) @ self.eigvecs.T)

    @functools.cached_property
    def kappa(self) -> float:
        return float(np.sqrt(self.eigvals[0] / self.eigvals[self.target_rank - 1]))

    @functools.cached_property
    def well_separated(self) -> bool:
        """Tail gap condition lambda_{k+1} <= lambda_k / 12, vacuous at k = r."""
        k = self.target_rank
        if k == self.rank:
            return True
        return bool(self.eigvals[k] <= self.eigvals[k - 1] / 12.0)

    def canonical_minimum(self) -> np.ndarray:
        """The top-k selection W_k diag(sqrt(lambda_k)), gauge Q = I;
        read-only."""
        return self._canonical_minimum

    @functools.cached_property
    def _canonical_minimum(self) -> np.ndarray:
        k = self.target_rank
        return _frozen(self.eigvecs[:, :k] * np.sqrt(self.eigvals[:k]))

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

    @functools.cached_property
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
class _GramEnsemble:
    """M seeded measurements, held as their N^2 x N^2 Gram matrix.

    A subclass declares its data fields (truth or signal, n_measurements,
    seed) and _gram_matrix, the Gram matrix G of its normal operator summed
    over the CHUNK-sized blocks of _normal_blocks. Here M >= 1 is checked and
    G is factored once: gram_root is a square-root factor C with
    C^T C = G, and gram is C^T C. energy is the sum of squares
    ||C vec Z||^2 and normal the one product G vec Z, at the same cost and
    memory for every M.
    """

    gram_root: np.ndarray = field(init=False, repr=False)
    gram: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        m = int(self.n_measurements)
        if m < 1:
            raise InvalidSampleCount(f"need at least one measurement, got {m}")
        object.__setattr__(self, "n_measurements", m)
        object.__setattr__(self, "seed", int(self.seed))
        root, gram = _gram_factors(self._gram_matrix())
        object.__setattr__(self, "gram_root", root)
        object.__setattr__(self, "gram", gram)

    def _gram_matrix(self) -> np.ndarray:
        raise NotImplementedError

    def _normal_blocks(self, tag: str, shape: tuple):
        """M standard normal draws of the given shape from stream (seed, tag),
        in consecutive blocks of at most CHUNK; concatenated, they are the
        one-shot draw of shape (M, *shape) bit for bit."""
        gen = rng.stream(self.seed, tag, 0)
        m = self.n_measurements
        for start in range(0, m, CHUNK):
            yield rng.normal(gen, (min(CHUNK, m - start), *shape))

    def energy(self, z: np.ndarray) -> float:
        """||C vec(Z)||^2, a sum of squares."""
        coords = _vec(z) @ self.gram_root.T
        return float((coords * coords).sum(axis=-1))

    def normal(self, z: np.ndarray) -> np.ndarray:
        """G vec(Z), reshaped like z, for one N x N matrix or a stack."""
        return (_vec(z) @ self.gram).reshape(z.shape)


@dataclass(frozen=True)
class SensingEnsemble(_GramEnsemble):
    """M Gaussian sensing matrices, held as (truth, M, seed) and a Gram factor.

    The draw is the unsymmetrized B_m with i.i.d. N(0, 1/M) entries, and the
    measurements are <X, A_m> with A_m = (B_m + B_m^T) / 2. G is
    sum_m vec(A_m) vec(A_m)^T, the Gram matrix of A*A, so energy(Z) is
    ||A(Z)||^2 and normal(Z) is A*A(Z). raw and measurements are regenerated
    from (seed, M) when read; apply streams the same blocks.
    """

    truth: SensingGroundTruth
    n_measurements: int
    seed: int

    def _gram_matrix(self) -> np.ndarray:
        n = self.truth.dim
        # rows are 2 vec(A_m), hence the 1/4
        stacks = (
            (raw + np.transpose(raw, (0, 2, 1))).reshape(-1, n * n)
            for raw in self._raw_blocks()
        )
        return 0.25 * _summed_gram(stacks)

    def _raw_blocks(self):
        n = self.truth.dim
        scale = np.sqrt(self.n_measurements)
        for block in self._normal_blocks("sensing-ensemble", (n, n)):
            yield block / scale

    def _contract(self, w: np.ndarray) -> np.ndarray:
        # (<B_m, W>)_m, block by block
        return np.concatenate(
            [np.einsum("mij,ij->m", raw, w) for raw in self._raw_blocks()]
        )

    @property
    def raw(self) -> np.ndarray:
        """The M x N x N draw B_m, regenerated from (seed, M)."""
        return np.concatenate(list(self._raw_blocks()))

    @property
    def measurements(self) -> np.ndarray:
        """<X, A_m> for every m, regenerated from (seed, M)."""
        return self._contract(self.truth.matrix)

    def apply(self, z: np.ndarray) -> np.ndarray:
        """A(Z) = (<A_m, Z>)_m, the exact sum over the regenerated draw."""
        return self._contract(0.5 * (z + z.T))


def generate_sensing_ensemble(
    truth: SensingGroundTruth, n_measurements: int, seed: int
) -> SensingEnsemble:
    """B_m with N(0, 1/M) entries from the seed; see SensingEnsemble."""
    return SensingEnsemble(truth, n_measurements, seed)


def _phase_signal(signal) -> np.ndarray:
    """The phase-retrieval signal x* as a frozen vector: finite, 1-d and
    nonzero, else NonFiniteEntry or ZeroTruthSignal."""
    x = np.asarray(signal, dtype=float)
    if not np.isfinite(x).all():
        raise NonFiniteEntry("signal entries must be finite")
    if x.ndim != 1 or np.linalg.norm(x) == 0.0:
        raise ZeroTruthSignal("phase retrieval needs a nonzero 1-d signal")
    return _frozen(x)


@dataclass(frozen=True)
class PhaseProblem(_GramEnsemble):
    """Phaseless measurements y_m = <a_m, x*>^2 of a nonzero signal.

    Held as (signal, M, seed) and a Gram factor: the standard normal sensing
    vectors a_m and the measurements are regenerated from (seed, M) when
    read, and the empirical risk reads x* in place of y. G is
    (1/M) sum_m vec(a_m a_m^T) vec(a_m a_m^T)^T, the empirical fourth
    moment of the sensing vectors, so energy(Z) is
    (1/M) sum_m <a_m a_m^T, Z>^2 and normal(Z) is
    (1/M) sum_m <a_m a_m^T, Z> a_m a_m^T.
    """

    signal: np.ndarray
    n_measurements: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "signal", _phase_signal(self.signal))
        super().__post_init__()

    def _gram_matrix(self) -> np.ndarray:
        n = self.dim
        stacks = (
            (a[:, :, None] * a[:, None, :]).reshape(-1, n * n)
            for a in self._vector_blocks()
        )
        return _summed_gram(stacks) / self.n_measurements

    def _vector_blocks(self):
        return self._normal_blocks("phase-problem", (self.dim,))

    @property
    def dim(self) -> int:
        return self.signal.shape[0]

    @property
    def vectors(self) -> np.ndarray:
        """The M x N sensing vectors, regenerated from (seed, M)."""
        return np.concatenate(list(self._vector_blocks()))

    @property
    def measurements(self) -> np.ndarray:
        """<a_m, x*>^2 for every m, regenerated from (seed, M)."""
        return np.concatenate(
            [(a @ self.signal) ** 2 for a in self._vector_blocks()]
        )


def generate_phase_problem(signal, n_measurements: int, seed: int) -> PhaseProblem:
    """Standard normal sensing vectors from the seed; see PhaseProblem."""
    return PhaseProblem(signal, n_measurements, seed)


# ---------------------------------------------------------------------------
# risk models
# ---------------------------------------------------------------------------


def _coerce(point, shape: tuple, stack: bool = False) -> np.ndarray:
    """The point as a finite float array of a model's shape; with stack, a
    (B, *shape) stack of points is accepted too."""
    arr = np.asarray(point, dtype=float)
    if arr.shape != shape and not (stack and arr.shape[1:] == shape):
        raise DimensionMismatch(
            f"point shape {arr.shape} does not match model shape {shape}"
        )
    if not np.isfinite(arr).all():
        raise NonFiniteEntry("point entries must be finite")
    return arr


class _Identity:
    """The matrix-sensing population operator: N(Z) = Z, energy ||Z||_F^2."""

    @staticmethod
    def energy(z: np.ndarray) -> float:
        return float(np.linalg.norm(z) ** 2)

    @staticmethod
    def normal(z: np.ndarray) -> np.ndarray:
        return z


class _FourthMoment:
    """The phase-retrieval population operator, held as a Gram matrix and
    applied as the ensembles apply theirs: the Gaussian fourth moment
    G_0 = E[vec(aa^T) vec(aa^T)^T] = I + K + vec(I) vec(I)^T (K the
    commutation matrix), the expectation of a phase problem's gram. On
    symmetric Z, N(Z) = 2Z + tr(Z) I and energy(Z) = 2 ||Z||_F^2 + tr(Z)^2.
    """

    def __init__(self, n: int):
        eye = np.eye(n * n)
        transpose = np.arange(n * n).reshape(n, n).T.ravel()
        flat_identity = np.eye(n).ravel()
        self.gram = _frozen(eye + eye[transpose] + np.outer(flat_identity, flat_identity))

    normal = _GramEnsemble.normal

    def energy(self, z: np.ndarray) -> float:
        return float(np.vdot(z, self.normal(z)))


class RiskModel:
    """The quartic c <R, N(R)> in the residual R = UU^T - X.

    Each of the four risks is this form over (operator, X, c, shape); the
    operator supplies N and energy(Z) = <Z, N(Z)>:

    - MsPopulationRisk: N the identity, c = 1/4;
    - MsEmpiricalRisk: N = A*A, the sensing ensemble's normal, c = 1/4;
    - PrPopulationRisk: N the Gaussian fourth moment, the expectation of
      the empirical N, which maps symmetric Z to 2Z + tr(Z) I; c = 1/2;
    - PrEmpiricalRisk: N the phase problem's normal, the empirical fourth
      moment, c = 1/2.

    A phase-retrieval point x in R^N is the N x 1 factor U = x inside the
    form, and X = x*x*^T. Then value = c energy(R), euclidean_grad =
    4c N(R) U, hess_vec = 4c [N(UD^T + DU^T) U + N(R) D] and hess_quadratic
    = 2c energy(UD^T + DU^T) + 4c <N(R), DD^T>, an independent oracle for
    <hess_vec(p, d), d>. R is formed first, so nothing cancels at the
    minimum. For factor models the Euclidean gradient is horizontal.

    euclidean_grad and hess_vec take a point or a (B, *shape) stack of
    points, each item bit for bit the value at that point alone; value and
    hess_quadratic take one point. hess_vec takes one direction or a stack
    of them along a leading axis (after the point's B axis, for a stack of
    points), and returns their images in the same shape.
    """

    is_factor = True

    def __init__(self, operator, target: np.ndarray, c: float, shape: tuple):
        self.operator = operator
        self.target = target
        self.c = c
        self.shape = shape
        # the derivatives' factor 4c
        self._scale = 4.0 * c

    def __init_subclass__(cls, **kwargs):
        # perfbench's tracer wraps value, euclidean_grad and hess_vec where
        # each risk class's own __dict__ holds them, so every subclass binds
        # the ones it resolves through the MRO as its own; this can go once
        # the tracer looks the methods up with getattr
        super().__init_subclass__(**kwargs)
        for name in ("value", "euclidean_grad", "hess_vec"):
            setattr(cls, name, getattr(cls, name))

    def _factor(self, arr: np.ndarray) -> np.ndarray:
        """A point as its N x k factor (a phase-retrieval vector as N x 1),
        and a (B, *shape) stack as (B, 1, N, k): each point's products are
        then items of their own in a batched product, rounded as at that
        point alone."""
        u = arr if self.is_factor else arr[..., None]
        return u[..., None, :, :] if u.ndim > 2 else u

    def _scaled(self, arr: np.ndarray) -> np.ndarray:
        # 4c arr; at c = 1/4 the product by 1 is skipped, which is a
        # measurable share of a derivative's cost at N = 2
        return arr if self._scale == 1.0 else self._scale * arr

    def value(self, point) -> float:
        u = self._factor(_coerce(point, self.shape))
        return self.c * self.operator.energy(u @ u.T - self.target)

    def euclidean_grad(self, point) -> np.ndarray:
        return self._gradient(_coerce(point, self.shape, stack=True))

    def _gradient(self, x: np.ndarray) -> np.ndarray:
        # euclidean_grad at a point or stack already through _coerce
        u = self._factor(x)
        residual = u @ u.swapaxes(-1, -2) - self.target
        return self._scaled(self.operator.normal(residual) @ u).reshape(x.shape)

    def hess_vec(self, point, direction) -> np.ndarray:
        u = self._factor(_coerce(point, self.shape, stack=True))
        d = np.asarray(direction, dtype=float)
        # (m, N, k) directions against one (N, k) point, or (B, m, N, k)
        # against a (B, 1, N, k) stack
        dm = d.reshape(*u.shape[:-3], -1, *u.shape[-2:])
        u_t = u.swapaxes(-1, -2)
        normal = self.operator.normal
        sym = dm @ u_t  # D U^T, whose transpose is U D^T
        sym = sym + sym.swapaxes(-1, -2)
        images = normal(sym) @ u + normal(u @ u_t - self.target) @ dm
        return self._scaled(images).reshape(d.shape)

    def hess_quadratic(self, point, direction) -> float:
        u = self._factor(_coerce(point, self.shape))
        d = self._factor(np.asarray(direction, dtype=float))
        sym = u @ d.T + d @ u.T
        residual = self.operator.normal(u @ u.T - self.target)
        return 2.0 * self.c * self.operator.energy(sym) + 4.0 * self.c * float(
            np.vdot(residual, d @ d.T)
        )


class _SensingRisk(RiskModel):
    """1/4 <R, N(R)> with R = UU^T - X over N x k factors."""

    def __init__(self, truth: SensingGroundTruth, operator):
        super().__init__(operator, truth.matrix, 0.25, (truth.dim, truth.target_rank))
        self.truth = truth

    # scale hooks used by solvers and tolerance policies
    @property
    def hessian_scale(self) -> float:
        return float(self.truth.eigvals[self.truth.target_rank - 1])

    @property
    def domain_scale(self) -> float:
        return float(np.sqrt(self.truth.eigvals[0]))

    @property
    def value_scale(self) -> float:
        # risk at the origin
        return 0.25 * float(np.linalg.norm(self.target) ** 2)


class MsPopulationRisk(_SensingRisk):
    """g(U) = 1/4 ||UU^T - X||_F^2."""

    def __init__(self, truth: SensingGroundTruth):
        super().__init__(truth, _Identity)


class MsEmpiricalRisk(_SensingRisk):
    """f(U) = 1/4 ||A(UU^T - X)||_2^2 for a fixed sensing ensemble."""

    def __init__(self, ensemble: SensingEnsemble):
        super().__init__(ensemble.truth, ensemble)
        self.ensemble = ensemble


class _PhaseRisk(RiskModel):
    """1/2 <R, N(R)> with R = xx^T - x*x*^T over R^N."""

    is_factor = False

    def __init__(self, signal: np.ndarray, operator):
        super().__init__(operator, _frozen(np.outer(signal, signal)), 0.5, signal.shape)
        self.signal = signal

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

    def __init__(self, signal):
        signal = _phase_signal(signal)
        super().__init__(signal, _FourthMoment(signal.shape[0]))

    def hess_matrix(self, point) -> np.ndarray:
        """The closed form 12 xx^T - 4 x*x*^T + (6||x||^2 - 2||x*||^2) I,
        an independent oracle."""
        x = _coerce(point, self.shape)
        xs = self.signal
        return (
            12.0 * np.outer(x, x)
            - 4.0 * self.target
            + (6.0 * float(x @ x) - 2.0 * float(xs @ xs)) * np.eye(x.shape[0])
        )


class PrEmpiricalRisk(_PhaseRisk):
    """f(x) = (1/2M) sum_m (<a_m, x>^2 - y_m)^2 for fixed measurements.

    Since <a_m, x>^2 - y_m = <a_m a_m^T, R> with R = xx^T - x*x*^T, the
    risk is energy(R) / 2 through the problem's Gram factor: value, gradient
    and hess_vec read x* and gram_root, never the vectors or measurements.
    hess_matrix stays the exact sum over the M vectors, regenerated from the
    seed, as an independent oracle.
    """

    def __init__(self, problem: PhaseProblem):
        super().__init__(problem.signal, problem)
        self.problem = problem

    def hess_matrix(self, point) -> np.ndarray:
        x = _coerce(point, self.shape)
        a = self.problem.vectors
        z = a @ x
        diag = 3.0 * z ** 2 - self.problem.measurements
        return (2.0 / self.problem.n_measurements) * (a.T * diag) @ a
