"""landscape-lab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # every workload, trace 0
    python3 perfbench/run.py --write-reference         # re-record the reference

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``. Workloads are defined in workloads.py.

--trace 0 measures the end-to-end metrics. It runs the workload in a fresh
process per iteration, back to back, for S seconds (it starts no iteration
that would end later than that, judged by the slowest so far, but always
runs one), and before each iteration times a fresh interpreter importing
``landscape_lab.cli`` (``setup_s``; at least SETUP_REPEATS samples, after
one warm-up). Each metric is the median over its samples.

``wall_ref`` and ``cpu_ref`` are the iteration's wall and CPU time after
import in units of a fixed reference computation timed in the same thread
before, during and after each experiment (see child.py). The host this
benchmark was built on is a shared VM whose speed swings by 20-50% over
tens of seconds, for plain Python and numpy alike; the raw seconds follow
it, the ratio to the reference follows it much less. The raw ``wall_s``
and ``cpu_s`` are printed with the other figures and reported by --trace 1.

--trace 1 measures the per-layer metrics. It runs the workload once
untraced and twice traced (S is not used), checks that the traced outputs
are byte-identical to the untraced ones and that the two traced runs make
exactly the same calls, and reports the first traced run's layer metrics,
the untraced run's raw and reference-relative times, overall and per
experiment, and ``trace_overhead_frac``.

Every iteration's outputs are checked (checks.py) and must be
byte-identical to the first iteration's. An experiment run with a wrong
exit code or a failed check counts as failed. Lines before the last show
the environment and each metric's median, quartiles and n; the last line is
the JSON result. The exit code is 0 when every check passed, 1 otherwise.

BLAS and OpenMP are pinned to one thread in the workload processes, so
parent and change see the same BLAS environment and the thread pool of
``ms_rank2_dist`` is the only parallelism.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
from workloads import DEFAULT_SEED, LABELS, TINY_WORKLOADS, WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
END_TO_END = (("wall_ref", "ref"), ("cpu_ref", "ref"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
# figures of an iteration that are printed, and reported by --trace 1, but
# carry no bound
RAW = (("wall_s", "s"), ("cpu_s", "s"), ("ref_s", "s"))


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "LANDSCAPE_LAB_SEED"}
    env.update(THREAD_ENV, PYTHONPATH=str(SRC))
    return env


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError:
        return ""


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    commit, dirty = None, None
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(
                ["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=False
            ).stdout.strip()

        commit = git("rev-parse", "HEAD") or None
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "thread_env": {k: child_env().get(k) for k in sorted(THREAD_ENV)},
        "git_commit": commit,
        "git_dirty": dirty,
    }


def timed_run(cmd, env) -> float:
    """Wall time of a child process that must exit 0.

    Popen.wait with a timeout polls every 50 ms, which would round the
    time up to that step; a timer kills a hung child instead.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
    elapsed = time.perf_counter() - t0
    if code:
        raise subprocess.CalledProcessError(code, cmd)
    return elapsed


def measure_setup() -> float:
    return timed_run([sys.executable, "-c", "import landscape_lab.cli"], child_env())


class Run:
    """One workload at one seed: iterations, checks and tallies."""

    def __init__(self, workload: str, seed: int, tiny: bool):
        self.workload = workload
        self.seed = seed
        self.tiny = tiny
        self.exps = (TINY_WORKLOADS if tiny else WORKLOADS)[workload]
        self.dir = OUT / f"{workload}-{seed}-{os.getpid()}"
        self.reference = None
        path = checks.reference_path(seed)
        if not tiny and path.is_file():
            self.reference = json.loads(path.read_text(encoding="utf-8"))
        self.first_hashes = None
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.identical = [0, 0]  # files byte-identical to the reference, compared

    def iterate(self, index: int, trace: bool) -> dict:
        """Run one iteration in a fresh process and check its outputs."""
        outdir = self.dir / f"iter{index}"
        outdir.mkdir(parents=True)
        result_path = outdir / "result.json"
        cmd = [
            sys.executable, str(HERE / "child.py"), "--workload", self.workload,
            "--seed", str(self.seed), "--outdir", str(outdir), "--result", str(result_path),
        ]
        cmd += ["--trace"] * trace + ["--tiny"] * self.tiny
        try:
            subprocess.run(
                cmd, env=child_env(), stdout=sys.stderr, check=True, timeout=CHILD_TIMEOUT_S
            )
            result = json.loads(result_path.read_text(encoding="utf-8"))
        except (subprocess.SubprocessError, OSError, ValueError) as exc:
            self.attempted += len(self.exps)
            self.failed += len(self.exps)
            self.problems.append(f"iteration {index}: {exc}")
            return None
        hashes = {}
        for exp, record in zip(self.exps, result["experiments"]):
            problems = checks.check_experiment(exp, outdir, self.seed, record["exit_code"])
            hashes[exp.label] = [
                checks.sha256(p) if p.is_file() else None for p in checks.output_files(exp, outdir)
            ]
            if self.first_hashes is None and self.reference is not None:
                found, identical, compared = checks.check_reference(
                    exp, outdir, record["exit_code"], self.reference
                )
                problems += found
                self.identical[0] += identical
                self.identical[1] += compared
            if self.first_hashes is not None and hashes[exp.label] != self.first_hashes[exp.label]:
                problems.append(f"{exp.label}: outputs differ from iteration 0")
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems += [f"iteration {index}: {p}" for p in problems]
        if self.first_hashes is None:
            self.first_hashes = hashes
        return result

    def cleanup(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        if OUT.is_dir() and not any(OUT.iterdir()):
            OUT.rmdir()


def summarize(values: list) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def measure_end_to_end(run: Run, seconds: float) -> tuple:
    measure_setup()  # compiles bytecode and warms the file cache
    samples = {"setup_s": []}
    start = time.perf_counter()
    index = 0
    longest = 0.0
    while index == 0 or time.perf_counter() - start + longest <= seconds:
        t0 = time.perf_counter()
        # set-up samples spread over the run, so drift in machine speed
        # moves them no more than the iterations
        samples["setup_s"].append(measure_setup())
        result = run.iterate(index, trace=False)
        index += 1
        longest = max(longest, time.perf_counter() - t0)
        if result is not None:
            for key in ("wall_ref", "cpu_ref", "peak_rss_mb", "wall_s", "cpu_s", "ref_s"):
                samples.setdefault(key, []).append(result[key])
            for record in result["experiments"]:
                for key in ("wall_ref", "wall_s"):
                    samples.setdefault(f"{record['label']}.{key}", []).append(record[key])
    while len(samples["setup_s"]) < SETUP_REPEATS:
        samples["setup_s"].append(measure_setup())
    units = dict(END_TO_END + RAW)
    table = {
        name: {"unit": units.get(name, "ref" if name.endswith("_ref") else "s"), **summarize(values)}
        for name, values in samples.items()
    }
    metrics = {
        name: {"value": table[name]["median"], "unit": unit}
        for name, unit in END_TO_END
        if name in table
    }
    return table, metrics


def measure_layers(run: Run) -> tuple:
    untraced = run.iterate(0, trace=False)
    traced = [run.iterate(1, trace=True), run.iterate(2, trace=True)]
    if untraced is None or None in traced:
        return {}, {}
    first, second = traced
    for a, b in zip(first["experiments"], second["experiments"]):
        if a["calls"] != b["calls"]:
            run.failed += 1
            run.problems.append(f"{a['label']}: call counts differ between traced runs")
    layers = dict(first["layers"])
    layers["trace_overhead_frac"] = first["wall_ref"] / untraced["wall_ref"] - 1.0
    for key, _ in RAW:
        layers[key] = untraced[key]
    records = {r["label"]: r for r in untraced["experiments"]}
    for label in LABELS:
        for key in ("wall_s", "wall_ref"):
            layers[f"{label}.{key}"] = records[label][key] if label in records else 0.0
    units = layer_units()
    metrics = {name: {"value": layers[name], "unit": units[name]} for name in units}
    return layers, metrics


def layer_units() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)["per_layer"]}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    run = Run(workload, seed, tiny)
    try:
        if trace:
            table, metrics = measure_layers(run)
        else:
            table, metrics = measure_end_to_end(run, seconds)
    finally:
        run.cleanup()
    print(f"== {workload} seed={seed} trace={int(trace)}")
    for name, row in table.items():
        if isinstance(row, dict):
            print(
                f"  {name:<44} {row['unit']:<6} median={row['median']:.6g} "
                f"q1={row['q1']:.6g} q3={row['q3']:.6g} n={row['n']}"
            )
        else:
            print(f"  {name:<52} {row:.6g}")
    if run.reference is not None:
        print(f"  byte-identical to reference: {run.identical[0]}/{run.identical[1]} files")
    for problem in run.problems:
        print(f"  FAILED {problem}")
    return {
        "correct": run.failed == 0 and bool(metrics),
        "attempted": max(run.attempted, 1),
        "failed": run.failed if metrics else max(run.failed, 1),
        "metrics": metrics,
    }


def write_reference(seed: int) -> int:
    exps = [exp for w in WORKLOADS.values() for exp in w]
    exit_codes = {}
    for workload in WORKLOADS:
        run = Run(workload, seed, tiny=False)
        run.reference = None  # record afresh, do not compare with the old one
        try:
            result = run.iterate(0, trace=False)
            if result is None or run.failed:
                print("\n".join(run.problems), file=sys.stderr)
                return 1
            exit_codes.update({r["label"]: r["exit_code"] for r in result["experiments"]})
            shutil.copytree(run.dir / "iter0", OUT / "reference", dirs_exist_ok=True)
        finally:
            run.cleanup()
    try:
        doc = checks.make_reference(exps, OUT / "reference", seed, exit_codes)
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
    path = checks.reference_path(seed)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="landscape-lab benchmark")
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "landscape_lab" / "__init__.py").is_file():
        print(f"no landscape_lab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.write_reference:
        return write_reference(args.seed)

    print(json.dumps({"environment": environment()}))
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {
        w: run_workload(w, args.seed, args.seconds, bool(args.trace), args.tiny)
        for w in workloads
    }
    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{name}": value for w, r in results.items() for name, value in r["metrics"].items()
            },
        }
    print(json.dumps(final, sort_keys=True))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
