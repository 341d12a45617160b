"""Experiment runners with seeded reproducibility and structured output.

``ExperimentConfig`` resolves the master seed and the output format once,
when it is built; ``run`` fills in the experiment's ``SETTINGS`` defaults
once, before its runner starts. A runner only computes: it derives every
random stream from the master seed, and returns its resolved configuration,
its tables, its JSON body and its summary. ``run`` is the one place that
writes: it stamps the outputs with the master seed, a hash of the resolved
configuration and the package version, and writes either one CSV file per
table or one JSON file. Re-running with an identical configuration
reproduces identical bytes.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from . import __version__, rng
from .critical_points import (
    MAX_GRID_POINTS,
    find_critical_points_each,
    grid_seed_points,
    refine_minimum_horizontal,
)
from .errors import GramNotSPD, InvalidConfig, NonFiniteEntry
from .landscape import (
    check_assumptions,
    default_thresholds,
    estimate_rip,
    verify_region_bounds_ms,
    verify_region_bounds_pr,
)
from .risk_models import (
    MsEmpiricalRisk,
    MsPopulationRisk,
    PrEmpiricalRisk,
    PrPopulationRisk,
    SensingGroundTruth,
    generate_phase_problem,
    generate_sensing_ensemble,
)
from .spectral import dense_euclidean_hessian

# the planar signal every two-dimensional figure uses
XSTAR_PLANE = np.array([1.0, -1.0])

NEWTON_SEED_SPACING = 0.1  # critical-point seeding for the 2d experiments


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    n: int | None = None
    k: int | None = None
    r: int | None = None
    # as given, a tuple; ``run`` makes it one count where the experiment takes one
    m: tuple | int = ()
    trials: int | None = None
    master_seed: int | None = None
    grid: tuple | None = None
    out: str | None = None
    fmt: str | None = None
    samples: int | None = None
    epsilon: float | None = None
    eta: float | None = None
    radius: float | None = None
    n_probes: int | None = None
    rank_bound: int | None = None
    family: str | None = None

    def __post_init__(self):
        # _resolve compares each field with its default, which an array
        # would do elementwise: an array or list m or grid is kept as a tuple
        for name in ("m", "grid"):
            value = getattr(self, name)
            if isinstance(value, np.ndarray):
                value = value.tolist()
            if isinstance(value, list):
                value = tuple(value)
            object.__setattr__(self, name, value)
        # the seed and the format resolve here, once: an explicit seed, else
        # the environment, else the default; JSON for verification, else CSV
        object.__setattr__(self, "master_seed", rng.resolve_master_seed(self.master_seed))
        if self.experiment not in EXPERIMENTS:
            raise InvalidConfig(
                f"unknown experiment {self.experiment!r}; choose one of "
                + ", ".join(EXPERIMENTS)
            )
        if self.fmt is None:
            default = "json" if self.experiment in VERIFICATION_EXPERIMENTS else "csv"
            object.__setattr__(self, "fmt", default)
        if self.fmt not in ("csv", "json"):
            raise InvalidConfig(f"format must be csv or json, got {self.fmt!r}")
        if self.grid is not None:
            lo, hi, points = self.grid
            # a finite span keeps linspace and the seed count finite
            if not (hi > lo and math.isfinite(hi - lo) and int(points) >= 2):
                raise InvalidConfig("grid needs max > min, a finite span and points >= 2")
            # a value per point of the line (pr1d) or of the plane
            values = int(points) ** (1 if self.experiment == "pr1d" else 2)
            if values > MAX_GRID_POINTS:
                raise InvalidConfig(
                    f"grid needs at most a million values, got {values}"
                )
        if self.trials is not None and self.trials < 1:
            raise InvalidConfig("trials must be at least 1")
        if any(int(v) < 1 for v in np.atleast_1d(self.m)):
            raise InvalidConfig("every measurement count must be at least 1")
        for name in ("n", "k", "r", "samples", "n_probes", "rank_bound"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise InvalidConfig(f"{name} must be at least 1")
        for name in ("epsilon", "eta", "radius"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value > 0.0):
                raise InvalidConfig(f"{name} must be finite and positive")


@dataclass(frozen=True)
class ExperimentOutcome:
    paths: tuple
    summary: dict
    ok: bool


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


def format_float(value: float) -> str:
    return "%.17g" % float(value)


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(value)
    return str(value)


def config_hash(resolved: dict) -> str:
    """Hash of the resolved configuration; runners put no output plumbing
    (out, format) in it."""
    lines = [f"{key}={_format_cell(resolved[key])}" for key in sorted(resolved)]
    digest = hashlib.sha256("\n".join(lines).encode("utf-8"))
    return digest.hexdigest()[:16]


def _stamp(resolved: dict) -> dict:
    return {
        "master_seed": resolved["master_seed"],
        "config_hash": config_hash(resolved),
        "version": __version__,
    }


class _Coordinates:
    """The x1 and x2 columns of a contour grid, which every surface's grid
    table shares. text is each row's "x1,x2" cells, formatted as
    format_float formats them, once, on first use. Each row keeps its own
    text: a cache keyed by value would print -0.0 as 0, since 0.0 == -0.0."""

    def __init__(self, columns: list):
        self.columns = columns

    @functools.cached_property
    def text(self) -> list:
        return list(map("%.17g,%.17g".__mod__, zip(*self.columns)))


class _GridRows:
    """A contour grid table's (x1, x2, value) rows, which _csv_text writes
    from the shared coordinates' text and the values. The row tuples are
    built only when the rows are iterated, as write_json does for a JSON
    body."""

    def __init__(self, coordinates: _Coordinates, values: list):
        self.coordinates = coordinates
        self.values = values

    def __iter__(self):
        return zip(*self.coordinates.columns, self.values)


def _grid_rows_list(obj) -> list:
    """write_json's default: a _GridRows as the list of its rows."""
    if not isinstance(obj, _GridRows):
        raise TypeError(f"{type(obj).__name__} is not JSON serializable")
    return list(obj)


def _csv_text(path: str, columns, rows, metadata: dict) -> str:
    """The text of one CSV table. An infinite cell raises NonFiniteEntry, as
    a non-finite number does in JSON; nan passes, as the null cell that
    ms_rank2_dist documents. Rows are formatted cell by cell, but a contour
    grid's rows (_GridRows) reuse the text of their coordinates."""
    lines = [f"# {key}: {_format_cell(value)}" for key, value in metadata.items()]
    lines.append(",".join(columns))
    if isinstance(rows, _GridRows):
        body = "\n".join(map("%s,%.17g".__mod__, zip(rows.coordinates.text, rows.values)))
        if "inf" in body:  # %.17g prints inf only for an infinity
            raise NonFiniteEntry(f"{path} would hold an infinite number")
        return "\n".join([*lines, body]) + "\n"
    for row in rows:
        if any(isinstance(cell, (float, np.floating)) and math.isinf(cell) for cell in row):
            raise NonFiniteEntry(f"{path} would hold an infinite number")
        lines.append(",".join(_format_cell(cell) for cell in row))
    return "\n".join(lines) + "\n"


def write_csv(path: str, text: str) -> str:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise InvalidConfig(f"cannot write {path}: {exc}") from None
    return path


def write_json(path: str, payload: dict) -> str:
    try:
        text = json.dumps(
            payload, indent=2, sort_keys=True, allow_nan=False, default=_grid_rows_list
        )
    except ValueError:  # NaN or Infinity, which JSON does not have
        raise NonFiniteEntry(f"{path} would hold a non-finite number") from None
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    except OSError as exc:
        raise InvalidConfig(f"cannot write {path}: {exc}") from None
    return path


def _alternating_signal(dim: int) -> np.ndarray:
    return np.array([1.0 if i % 2 == 0 else -1.0 for i in range(dim)])


def _identity_truth(dim: int, eigvals, target_rank: int) -> SensingGroundTruth:
    lam = np.asarray(eigvals, dtype=float)
    return SensingGroundTruth(
        eigvecs=np.eye(dim)[:, : lam.shape[0]], eigvals=lam, target_rank=target_rank
    )


def _sensing_instance(config: ExperimentConfig):
    """The verification sensing truth: spectrum (1.3, 1.0, 0.08)[:r], or ones."""
    n, k, r = config.n, config.k, config.r
    truth = _identity_truth(n, (1.3, 1.0, 0.08)[:r] if r <= 3 else np.ones(r), k)
    return truth, {"family": "ms", "n": n, "k": k, "r": r}


# ---------------------------------------------------------------------------
# pr1d: both risks on a line
# ---------------------------------------------------------------------------


def run_pr1d(config: ExperimentConfig, master: int):
    lo, hi, points = config.grid
    xstar = np.array([1.0])
    cutoff = config.epsilon
    if cutoff is None:
        cutoff = default_thresholds(xstar)[0]

    pop = PrPopulationRisk(xstar)
    emp = PrEmpiricalRisk(
        generate_phase_problem(
            xstar, config.m, seed=rng.subseed(master, "pr1d-ensemble", 0)
        )
    )
    axis = np.linspace(lo, hi, int(points))
    line = axis[:, None]  # the (P, 1) stack of points
    series = [axis, pop.value(line), emp.value(line)]
    series += [model.euclidean_grad(line)[:, 0] for model in (pop, emp)]
    series += [dense_euclidean_hessian(model, line)[:, 0, 0] for model in (pop, emp)]
    rows = list(zip(*(column.tolist() for column in series)))

    intervals = []
    start = None
    for i, row in enumerate(rows):
        inside = abs(row[3]) <= cutoff
        if inside and start is None:
            start = row[0]
        if not inside and start is not None:
            intervals.append([start, rows[i - 1][0]])
            start = None
    if start is not None:
        intervals.append([start, rows[-1][0]])

    resolved = {
        "n": 1,
        "m": config.m,
        "grid_min": lo,
        "grid_max": hi,
        "grid_points": int(points),
        "epsilon": cutoff,
    }
    columns = ("x", "g", "f", "dg", "df", "d2g", "d2f")
    meta = {"m": config.m, "epsilon": cutoff, "small_gradient_intervals": json.dumps(intervals)}
    body = {"columns": columns, "rows": rows, "small_gradient_intervals": intervals}
    summary = {"rows": len(rows), "small_gradient_intervals": intervals}
    return resolved, [("", columns, rows, meta)], body, summary, True


# ---------------------------------------------------------------------------
# pr2d / ms2d_rank1: contour grids plus classified critical points
# ---------------------------------------------------------------------------


def _plane_rank_one_truth() -> SensingGroundTruth:
    norm = float(np.linalg.norm(XSTAR_PLANE))
    return SensingGroundTruth(
        eigvecs=(XSTAR_PLANE / norm).reshape(-1, 1),
        eigvals=np.array([norm**2]),
        target_rank=1,
    )


def _surface_models(config: ExperimentConfig, master: int):
    m_list = config.m
    if config.experiment == "pr2d":
        surfaces = [("population", PrPopulationRisk(XSTAR_PLANE))]
        for m in m_list:
            problem = generate_phase_problem(
                XSTAR_PLANE, m, seed=rng.subseed(master, f"pr2d-m{m}", 0)
            )
            surfaces.append((f"m{m}", PrEmpiricalRisk(problem)))
    else:
        truth = _plane_rank_one_truth()
        surfaces = [("population", MsPopulationRisk(truth))]
        for m in m_list:
            ensemble = generate_sensing_ensemble(
                truth, m, seed=rng.subseed(master, f"ms2d-m{m}", 0)
            )
            surfaces.append((f"m{m}", MsEmpiricalRisk(ensemble)))
    return surfaces, m_list


def run_2d_landscape(config: ExperimentConfig, master: int):
    lo, hi, points = config.grid
    surfaces, m_list = _surface_models(config, master)

    axis = np.linspace(lo, hi, int(points))
    # the (P^2, 2) grid, x1 the outer axis, and the seeds; each is reshaped
    # to a stack of the surface's points, (2,) or (2, 1)
    grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    coordinates = _Coordinates(grid.T.tolist())
    shape = surfaces[0][1].shape
    newton_seeds = grid_seed_points(lo, hi, NEWTON_SEED_SPACING, 2).reshape(-1, *shape)
    # the population and every empirical surface search as one stack
    searches = find_critical_points_each([model for _, model in surfaces], newton_seeds)

    tables = []
    surface_payloads = {}
    counts = {}
    for (name, model), search in zip(surfaces, searches):
        values = model.value(grid.reshape(-1, *shape))
        grid_rows = _GridRows(coordinates, values.tolist())
        point_rows = sorted(
            (
                float(record.location.ravel()[0]),
                float(record.location.ravel()[1]),
                record.grad_norm,
                record.lambda_min,
                record.kind,
            )
            for record in search.records
        )
        counts[name] = len(point_rows)
        meta = {"surface": name}
        tables.append((f"_{name}_grid", ("x1", "x2", "value"), grid_rows, meta))
        point_columns = ("x1", "x2", "grad_norm", "lambda_min", "kind")
        tables.append((f"_{name}_points", point_columns, point_rows, meta))
        surface_payloads[name] = {
            "grid": grid_rows,
            "points": point_rows,
            "n_seeds": search.n_seeds,
            "n_failed": search.n_failed,
        }
    resolved = {
        "n": 2,
        "m_list": ",".join(str(m) for m in m_list),
        "grid_min": lo,
        "grid_max": hi,
        "grid_points": int(points),
        "newton_seed_spacing": NEWTON_SEED_SPACING,
    }
    body = {"surfaces": surface_payloads}
    return resolved, tables, body, {"critical_points": counts}, True


# ---------------------------------------------------------------------------
# ms_rank2_dist: minima drift against measurement count
# ---------------------------------------------------------------------------


def run_ms_rank2_distance(config: ExperimentConfig, master: int):
    n, k, r, trials, m_list = config.n, config.k, config.r, config.trials, config.m
    if not (1 <= k <= r <= n):
        raise InvalidConfig("need 1 <= k <= r <= n")

    truth = _identity_truth(n, np.ones(r), k)
    ustar = truth.canonical_minimum()

    def one_trial(m: int, trial: int):
        ensemble = generate_sensing_ensemble(
            truth, m, seed=rng.subseed(master, f"ms-dist-m{m}", trial)
        )
        model = MsEmpiricalRisk(ensemble)
        try:
            refined, grad_norm = refine_minimum_horizontal(model, ustar)
        except GramNotSPD:
            # the refinement reached a rank-deficient factor, where the
            # horizontal space is undefined: a failed trial, not a failed sweep
            return False, math.nan
        converged = grad_norm <= 1e-6 * (1.0 + model.value_scale)
        # distance to the population minimum set: with a degenerate top
        # block the minima sweep a continuum, and the empirical minimum
        # tracks the set, not any single gauge orbit
        return converged, truth.minimum_set_distance(refined)

    rows = []
    detail = {}
    for m in m_list:
        outcomes = [one_trial(m, t) for t in range(trials)]
        distances = [d for ok, d in outcomes if ok]
        trials_ok = len(distances)
        mean = float(np.mean(distances)) if distances else None
        std = float(np.std(distances, ddof=1)) if trials_ok >= 2 else 0.0
        rows.append((m, trials_ok, mean, std))
        detail[str(m)] = {
            "distances": distances,
            "failed_trials": trials - trials_ok,
        }

    resolved = {
        "n": n,
        "k": k,
        "r": r,
        "trials": trials,
        "m_list": ",".join(str(m) for m in m_list),
    }
    columns = ("M", "trials_ok", "mean_dist", "std_dist")
    body = {"columns": columns, "rows": rows, "per_m": detail}
    summary = {"means": {str(m): mean for m, _, mean, _ in rows}}
    # a mean over no converged trial is null in JSON and nan in its CSV cell
    csv_rows = [
        (m, ok, math.nan if mean is None else mean, std) for m, ok, mean, std in rows
    ]
    return resolved, [("", columns, csv_rows, {"trials": trials})], body, summary, True


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


def _assumptions_report(config: ExperimentConfig, master: int):
    seed = rng.subseed(master, "assumptions-ensemble", 0)
    if config.family == "pr":
        signal = _alternating_signal(config.n)
        pop = PrPopulationRisk(signal)
        emp = PrEmpiricalRisk(generate_phase_problem(signal, config.m, seed=seed))
        instance = {"family": "pr", "n": config.n}
    else:
        truth, instance = _sensing_instance(config)
        pop = MsPopulationRisk(truth)
        emp = MsEmpiricalRisk(generate_sensing_ensemble(truth, config.m, seed=seed))
    instance["m"] = config.m
    report = check_assumptions(
        pop, emp, config.samples, master, config.epsilon, config.eta, config.radius
    )
    return report.to_json_dict(), report.overall_pass, instance


def _regions_ms_report(config: ExperimentConfig, master: int):
    truth, instance = _sensing_instance(config)
    report = verify_region_bounds_ms(truth, config.samples, master)
    return report.to_json_dict(), report.all_clear, instance


def _regions_pr_report(config: ExperimentConfig, master: int):
    n = config.n
    signal = np.array([1.2, -0.5, 0.3]) if n == 3 else _alternating_signal(n)
    report = verify_region_bounds_pr(signal, config.samples, master)
    return report.to_json_dict(), report.all_clear, {"family": "pr", "n": n}


def _rip_report(config: ExperimentConfig, master: int):
    n, k, r, m = config.n, config.k, config.r, config.m
    truth = _identity_truth(n, np.ones(r), k)
    ensemble = generate_sensing_ensemble(
        truth, m, seed=rng.subseed(master, "rip-ensemble", 0)
    )
    report = estimate_rip(
        ensemble,
        rank_bound=config.rank_bound,
        n_probes=config.n_probes,
        seed=master,
        epsilon=config.epsilon,
        eta=config.eta,
    )
    instance = {"family": "ms", "n": n, "k": k, "r": r, "m": m}
    return report.to_json_dict(), report.within_threshold, instance


def _verification(report_of):
    """The runner of a verification report: JSON only, the report its body."""

    def run_verification(config: ExperimentConfig, master: int):
        if config.fmt != "json":
            raise InvalidConfig("verification reports are JSON only")
        report, ok, instance = report_of(config, master)
        return instance, [], {"ok": ok, "report": report}, {"ok": ok}, ok

    return run_verification


# the verification experiments, each by the report its runner wraps
VERIFICATION_EXPERIMENTS = {
    "assumptions": _assumptions_report,
    "regions_ms": _regions_ms_report,
    "regions_pr": _regions_pr_report,
    "rip": _rip_report,
}
RUNNERS = {
    "pr1d": run_pr1d,
    "pr2d": run_2d_landscape,
    "ms2d_rank1": run_2d_landscape,
    "ms_rank2_dist": run_ms_rank2_distance,
    **{name: _verification(report) for name, report in VERIFICATION_EXPERIMENTS.items()},
}
EXPERIMENTS = tuple(RUNNERS)

# The keys each experiment reads besides master_seed, out and fmt, which all
# read, and their defaults; a None default is derived from the instance, by
# landscape.default_thresholds or, for rip's rank_bound, by estimate_rip. An
# m default of one count means the experiment takes one M, a tuple a list.
# The line and plane experiments fix their dimension, so they do not read n.
# assumptions has an entry per family, the first its default.
SETTINGS = {
    "pr1d": {"m": 30, "grid": (-2.0, 2.0, 401), "epsilon": None},
    "pr2d": {"m": (3, 10), "grid": (-2.0, 2.0, 81)},
    "ms2d_rank1": {"m": (3, 10), "grid": (-2.0, 2.0, 81)},
    "ms_rank2_dist": {"n": 8, "k": 2, "r": 3, "m": (50, 100, 200, 400, 800), "trials": 20},
    "assumptions": {
        "pr": {"family": "pr", "n": 2, "m": 2000, "samples": 2000,
               "epsilon": None, "eta": None, "radius": None},
        # horizontal Hessian assembly is the cost driver for factors
        "ms": {"family": "ms", "n": 8, "k": 2, "r": 3, "m": 2000, "samples": 300,
               "epsilon": None, "eta": None, "radius": None},
    },
    "regions_ms": {"n": 8, "k": 2, "r": 3, "samples": 500},
    "regions_pr": {"n": 3, "samples": 500},
    "rip": {"n": 4, "k": 1, "r": 1, "m": 2000, "rank_bound": None, "n_probes": 500,
            "epsilon": None, "eta": None},
}
_READ_BY_ALL = {"experiment", "master_seed", "out", "fmt"}


def _resolve(config: ExperimentConfig) -> ExperimentConfig:
    """``config`` with the defaults of its ``SETTINGS`` entry filled in. A key
    set that the entry lacks, an M list for one M, or an M list that
    repeats a count, is an error."""
    entry = SETTINGS[config.experiment]
    if config.experiment == "assumptions":
        family = config.family or next(iter(entry))
        if family not in entry:
            raise InvalidConfig(f"family must be {' or '.join(entry)}, got {family!r}")
        entry = entry[family]
    unset = {f.name for f in fields(config) if getattr(config, f.name) == f.default}
    unread = [f.name for f in fields(config) if f.name not in {*unset, *entry, *_READ_BY_ALL}]
    if unread:
        raise InvalidConfig(f"{config.experiment} does not read {', '.join(unread)}")
    filled = {key: entry[key] for key in entry.keys() & unset}
    if "m" in entry.keys() - unset:
        counts = tuple(int(v) for v in np.atleast_1d(config.m))
        one = isinstance(entry["m"], int)
        if one and len(counts) > 1:
            listed = ",".join(map(str, counts))
            raise InvalidConfig(f"{config.experiment} takes one measurement count, got {listed}")
        # each count names a surface or a row, so it may appear once
        repeated = next((m for i, m in enumerate(counts) if m in counts[:i]), None)
        if repeated is not None:
            raise InvalidConfig(
                f"{config.experiment} lists measurement count {repeated} more than once"
            )
        filled["m"] = counts[0] if one else counts
    return replace(config, **filled)


def run(config: ExperimentConfig) -> ExperimentOutcome:
    """Run one experiment and write its outputs.

    ``RUNNERS[experiment](config, master)`` computes and writes nothing. It
    returns ``(resolved, tables, body, summary, ok)``:

    - ``resolved``: the resolved configuration, substance only; ``run``
      prepends ``experiment`` and ``master_seed`` and hashes the result;
    - ``tables``: a list of ``(suffix, columns, rows, meta)``, written in
      order as ``<out><suffix>.csv`` with the stamp, the experiment name
      and ``meta`` as header lines;
    - ``body``: the keys of the JSON output beyond ``config`` and the stamp;
    - ``summary``: the summary keys beyond the stamp;
    - ``ok``: the verdict, which sets the exit code.

    The runner reads ``config`` with its ``SETTINGS`` defaults filled in; a
    set key that the entry lacks, an M list for one M, or an M list that
    repeats a count, raises ``InvalidConfig`` before anything runs or is
    written.

    CSV writes one file per table, once every table has been checked for
    infinite cells; JSON writes one file holding the config, the stamp and
    the body, once it has been checked for non-finite numbers. The master
    seed and the format are the ones ``config`` resolved when it was built.
    """
    config = _resolve(config)
    master = config.master_seed
    resolved, tables, body, summary, ok = RUNNERS[config.experiment](config, master)
    resolved = {"experiment": config.experiment, "master_seed": master, **resolved}
    stamp = _stamp(resolved)
    base = config.out or config.experiment
    if config.fmt == "csv":
        # every table is rendered, and so checked, before any is written
        names = [f"{base}{suffix}.csv" for suffix, _, _, _ in tables]
        texts = [
            _csv_text(name, columns, rows, {**stamp, "experiment": config.experiment, **meta})
            for name, (_, columns, rows, meta) in zip(names, tables)
        ]
        paths = tuple(write_csv(name, text) for name, text in zip(names, texts))
    else:
        paths = (write_json(base + ".json", {"config": resolved, **stamp, **body}),)
    return ExperimentOutcome(paths=paths, summary={**summary, **stamp}, ok=ok)
