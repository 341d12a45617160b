"""Output checks for one workload iteration.

Every seed gets the structural checks: the exit code is one the workload
allows, every output file exists and carries the master seed, verification
reports agree with the exit code, population critical sets match
``analytic_critical_points_*``, every surface has critical points of a valid
kind, and the distance table covers the requested M.

The default seed is also compared with the reference under
``perfbench/reference``: exact exit codes, critical-point counts and kinds,
verdict strings and every other string, bool and integer, and floats within
RTOL relative (ATOL absolute near zero). Byte identity with the reference is
only counted, because last-bit drift is allowed when recorded.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

RTOL = 1e-6
ATOL = 1e-8
# a found population point matches an analytic one within this distance
POINT_TOL = 1e-6
KINDS = ("LocalMin", "StrictSaddle", "Degenerate")
PLANE = ("pr2d", "ms2d_rank1")
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def _flag(argv, flag):
    """Value of a flag the workload passes (plane and distance runs pass
    --m, --grid and --trials explicitly)."""
    return argv[argv.index(flag) + 1]


def output_files(exp, outdir) -> list:
    """Paths the experiment writes, in a fixed order."""
    base = Path(outdir) / exp.label
    if exp.name in PLANE:
        m_list = _flag(exp.argv, "--m").split(",")
        return [
            Path(f"{base}_{surface}_{part}.csv")
            for surface in ["population"] + [f"m{m}" for m in m_list]
            for part in ("grid", "points")
        ]
    if exp.name == "ms_rank2_dist":
        return [Path(f"{base}.csv")]
    return [Path(f"{base}.json")]


def _cell(text):
    try:
        return float(text)
    except ValueError:
        return text


def read_csv(path: Path):
    """(metadata dict, column names, rows) of a CSV the package wrote."""
    meta, rows, columns = {}, [], None
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append([_cell(c) for c in line.split(",")])
    return meta, columns, rows


def _without_version(doc: dict) -> dict:
    return {k: v for k, v in doc.items() if k != "version"}


def digest(path: Path):
    """What the reference keeps of one output file."""
    if path.suffix == ".json":
        return _without_version(json.loads(path.read_text(encoding="utf-8")))
    meta, columns, rows = read_csv(path)
    content = {"metadata": _without_version(meta), "columns": columns}
    if path.name.endswith("_grid.csv"):
        values = [row[2] for row in rows]
        content.update(rows=len(rows), sum=math.fsum(values), min=min(values), max=max(values))
    else:
        content["rows"] = rows
    return content


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def compare(expected, got, where="") -> list:
    """Differences between a reference digest and a fresh one."""
    if isinstance(expected, float) or isinstance(got, float):
        if not isinstance(expected, (int, float)) or not isinstance(got, (int, float)):
            return [f"{where}: expected {expected!r}, got {got!r}"]
        if math.isnan(expected) and math.isnan(got):
            return []
        if abs(expected - got) <= RTOL * max(abs(expected), abs(got)) + ATOL:
            return []
        return [f"{where}: expected {expected!r}, got {got!r}"]
    if isinstance(expected, dict) and isinstance(got, dict):
        if sorted(expected) != sorted(got):
            return [f"{where}: keys {sorted(expected)} != {sorted(got)}"]
        return [p for k in expected for p in compare(expected[k], got[k], f"{where}.{k}")]
    if isinstance(expected, list) and isinstance(got, list):
        if len(expected) != len(got):
            return [f"{where}: length {len(expected)} != {len(got)}"]
        return [p for i, (a, b) in enumerate(zip(expected, got)) for p in compare(a, b, f"{where}[{i}]")]
    if expected != got:
        return [f"{where}: expected {expected!r}, got {got!r}"]
    return []


def _analytic_points(name):
    import numpy as np
    from landscape_lab.critical_points import (
        analytic_critical_points_ms,
        analytic_critical_points_pr,
    )
    from landscape_lab.experiments import XSTAR_PLANE, _plane_rank_one_truth

    if name == "pr2d":
        points = analytic_critical_points_pr(XSTAR_PLANE)
    else:
        points = analytic_critical_points_ms(_plane_rank_one_truth(), include_signs=True)
    # the minima are +-x*; every other population critical point, the
    # origin included, has a negative Hessian eigenvalue
    minima = [XSTAR_PLANE, -XSTAR_PLANE]
    return [
        (
            tuple(float(v) for v in np.ravel(p)),
            "LocalMin" if any(np.allclose(np.ravel(p), m) for m in minima) else "StrictSaddle",
        )
        for p in points
    ]


def _check_population(exp, rows) -> list:
    lo, hi, _ = (float(v) for v in _flag(exp.argv, "--grid").split(":"))
    analytic = _analytic_points(exp.name)
    problems = []
    matched = set()
    for row in rows:
        found = [
            i
            for i, (point, _) in enumerate(analytic)
            if math.dist(point, row[:2]) <= POINT_TOL and i not in matched
        ]
        if not found:
            problems.append(f"population point {row[:2]} is not an analytic critical point")
            continue
        matched.add(found[0])
        point, kind = analytic[found[0]]
        if row[4] != kind:
            problems.append(f"population point {point} classified {row[4]}, not {kind}")
    for i, (point, _) in enumerate(analytic):
        inside = all(lo <= v <= hi for v in point)
        if inside and i not in matched:
            problems.append(f"analytic critical point {point} not found")
    return problems


def _check_file(exp, path: Path, seed: int, exit_code: int) -> list:
    if path.suffix == ".json":
        doc = json.loads(path.read_text(encoding="utf-8"))
        problems = []
        if doc.get("master_seed") != seed:
            problems.append(f"{path.name}: master_seed {doc.get('master_seed')} != {seed}")
        if doc.get("ok") != (exit_code == 0):
            problems.append(f"{path.name}: ok={doc.get('ok')} but exit code {exit_code}")
        return problems
    meta, columns, rows = read_csv(path)
    problems = []
    if meta.get("master_seed") != str(seed):
        problems.append(f"{path.name}: master_seed {meta.get('master_seed')} != {seed}")
    if exp.name == "ms_rank2_dist":
        trials = int(_flag(exp.argv, "--trials"))
        m_list = [float(m) for m in _flag(exp.argv, "--m").split(",")]
        if [row[0] for row in rows] != m_list:
            problems.append(f"{path.name}: M column {[row[0] for row in rows]} != {m_list}")
        for m, ok, mean, _ in rows:
            if not 0 <= ok <= trials or (ok > 0 and not mean >= 0.0):
                problems.append(f"{path.name}: M={m} trials_ok={ok} mean={mean}")
    elif path.name.endswith("_points.csv"):
        kinds = [row[4] for row in rows]
        if any(kind not in KINDS for kind in kinds):
            problems.append(f"{path.name}: unknown kind in {kinds}")
        if not kinds:
            problems.append(f"{path.name}: no critical point found")
        if "_population_" in path.name:
            problems += [f"{path.name}: {p}" for p in _check_population(exp, rows)]
    elif path.name.endswith("_grid.csv"):
        points = int(_flag(exp.argv, "--grid").split(":")[2])
        if len(rows) != points * points or not all(math.isfinite(r[2]) for r in rows):
            problems.append(f"{path.name}: {len(rows)} rows or a non-finite value")
    return problems


def check_experiment(exp, outdir, seed: int, exit_code: int) -> list:
    """Structural problems of one experiment's run, any seed."""
    if exit_code not in exp.exit_codes:
        return [f"{exp.label}: exit code {exit_code}, expected one of {exp.exit_codes}"]
    problems = []
    for path in output_files(exp, outdir):
        if not path.is_file():
            problems.append(f"{exp.label}: missing output {path.name}")
        else:
            problems += _check_file(exp, path, seed, exit_code)
    return problems


def reference_path(seed: int) -> Path:
    return REFERENCE_DIR / f"seed-{seed}.json"


def make_reference(exps, outdir, seed: int, exit_codes: dict) -> dict:
    return {
        "seed": seed,
        "rtol": RTOL,
        "atol": ATOL,
        "experiments": {
            exp.label: {
                "exit_code": exit_codes[exp.label],
                "files": {
                    path.name: {"sha256": sha256(path), "content": digest(path)}
                    for path in output_files(exp, outdir)
                },
            }
            for exp in exps
        },
    }


def check_reference(exp, outdir, exit_code: int, reference: dict):
    """(problems, files byte-identical to the reference, files compared)."""
    expected = reference["experiments"].get(exp.label)
    if expected is None:
        return [f"{exp.label}: not in the reference"], 0, 0
    problems = []
    if exit_code != expected["exit_code"]:
        problems.append(f"{exp.label}: exit code {exit_code}, reference {expected['exit_code']}")
    identical = 0
    for name, ref in expected["files"].items():
        path = Path(outdir) / name
        if not path.is_file():
            problems.append(f"{exp.label}: missing output {name}")
            continue
        identical += sha256(path) == ref["sha256"]
        problems += compare(ref["content"], digest(path), name)
    return problems, identical, len(expected["files"])
