"""One iteration of a workload, in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N --outdir DIR \
        --result FILE [--trace] [--tiny]

Imports landscape_lab from the checkout's ``src``, runs the workload's
experiments back to back through ``landscape_lab.cli.main`` (outputs go to
DIR), and writes a JSON result to FILE: per experiment its exit code, wall
time and process CPU time (user + sys, all threads), and for the whole
iteration the sums of those after import and peak RSS. With --trace the
layers are wrapped first (see tracer.py) and the result also holds
per-layer metrics and per-experiment call counts.

Each experiment's time is also given in units of a fixed reference
computation (``reference_kernel``: numpy and plain Python, no
landscape_lab code) timed in the same thread around and during the
experiment (``wall_ref``, ``cpu_ref``). On a shared host whose speed
swings within seconds, that ratio follows the program rather than the
host, so it is what the benchmark's bounded metrics are made of. During an
untraced experiment a SIGALRM handler runs the reference computation every
SAMPLE_PERIOD_S seconds; the time spent in the handler is taken out of the
experiment's time. Traced experiments are timed against the reference
before and after them only, so that no handler time lands in a span.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

REF_REPEATS = 3
SAMPLE_PERIOD_S = 0.2

# The reference computation: small dense linear algebra one call at a time
# on matrices of 2 to 24 rows (eigh, solve, einsum, outer products: the
# interpreter and per-call overhead of the Newton searches and samplers),
# string formatting and dict building (like the output writers), and
# products with 256 KB blocks of a 2 MB set (memory traffic, like the
# M-sums). About 10 ms on a 2-vCPU Xeon VM.
_ref_rng = np.random.default_rng(20250817)
_REF_MATS = [
    (lambda a: a + a.T)(_ref_rng.standard_normal((n, n)))
    for n in (2, 3, 4, 6, 8, 12, 16, 24)
    for _ in range(2)
]
_REF_BLOCKS = [_ref_rng.standard_normal((4096, 8)) for _ in range(8)]


def reference_kernel() -> float:
    total = 0.0
    for i in range(72):
        a = _REF_MATS[i % 16]
        n = a.shape[0]
        v = a[:, i % n]
        w, q = np.linalg.eigh(a)
        x = np.linalg.solve(a + n * np.eye(n), v)
        total += float(w[0]) + float(np.linalg.norm(x)) + float(np.vdot(q[:, 0], v))
        total += float(np.einsum("i,ij,j->", v, a, v)) + float(np.outer(v, x).sum())
        total += len("%.17g" % total) + len(",".join(str(float(t)) for t in v[:3]))
        cells = {f"k{j}": j * total for j in range(4)}
        total += sum(cells.values()) * 1e-12
        total += float((_REF_BLOCKS[i % 8] @ np.resize(v, 8)).sum())
    return total


class HostClock:
    """Wall and thread CPU times of reference computations.

    ``measure`` runs REF_REPEATS of them and keeps their median as one
    sample; while ``sampling`` is active a SIGALRM handler adds one sample
    every SAMPLE_PERIOD_S seconds and tallies the time it spent.
    """

    def __init__(self):
        self.samples = []  # (wall, cpu) per sample
        self.spent = [0.0, 0.0]  # wall and CPU time spent in the handler

    @staticmethod
    def _run() -> tuple:
        w0, c0 = time.perf_counter(), time.thread_time()
        reference_kernel()
        return time.perf_counter() - w0, time.thread_time() - c0

    def measure(self):
        runs = sorted(self._run() for _ in range(REF_REPEATS))
        self.samples.append(runs[REF_REPEATS // 2])

    def _handler(self, signum, frame):
        w0, c0 = time.perf_counter(), time.thread_time()
        self.samples.append(self._run())
        self.spent[0] += time.perf_counter() - w0
        self.spent[1] += time.thread_time() - c0

    @contextlib.contextmanager
    def sampling(self, active: bool):
        if not active:
            yield
            return
        previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def take(self) -> tuple:
        """Harmonic means of the sample times, and the handler tally.

        The harmonic mean, because the work a program gets done in a span
        is its wall time times the host's mean speed over the span, and
        speed is the reciprocal of the reference time. The next span
        starts from the last sample, taken between the two.
        """
        walls, cpus = zip(*self.samples)
        mean = (
            len(walls) / sum(1.0 / w for w in walls),
            len(cpus) / sum(1.0 / max(c, 1e-9) for c in cpus),
        )
        spent = tuple(self.spent)
        self.samples, self.spent = [self.samples[-1]], [0.0, 0.0]
        return mean, spent


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    from workloads import TINY_WORKLOADS, WORKLOADS

    experiments = (TINY_WORKLOADS if args.tiny else WORKLOADS)[args.workload]
    sys.path.insert(0, str(ROOT / "src"))
    from landscape_lab import cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"landscape_lab imported from {cli.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 1

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    records = []
    clock = HostClock()
    clock._run()  # warm-up
    clock.measure()
    for exp in experiments:
        cli_argv = list(exp.argv) + [
            "--seed", str(args.seed), "--out", os.path.join(args.outdir, exp.label)
        ]
        if exp.config:
            cli_argv += ["--config", str(HERE / "configs" / exp.config)]
        calls_before = tracer.calls() if tracer else {}
        stdout = io.StringIO()
        t0, cpu0 = time.perf_counter(), _cpu_s()
        try:
            with clock.sampling(tracer is None), contextlib.redirect_stdout(stdout):
                code = cli.main(cli_argv)
        except Exception:  # an uncaught error is exit 1 for a CLI user too
            traceback.print_exc()
            code = 1
        wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
        clock.measure()
        (ref_wall, ref_cpu), (spent_wall, spent_cpu) = clock.take()
        wall -= spent_wall
        cpu -= spent_cpu
        record = {
            "label": exp.label,
            "exit_code": code,
            "wall_s": wall,
            "cpu_s": cpu,
            "ref_s": ref_wall,
            "wall_ref": wall / ref_wall,
            "cpu_ref": cpu / ref_cpu,
        }
        if tracer:
            after = tracer.calls()
            record["calls"] = {
                k: v - calls_before.get(k, 0)
                for k, v in sorted(after.items())
                if v != calls_before.get(k, 0)
            }
        records.append(record)

    result = {
        "experiments": records,
        **{key: sum(r[key] for r in records) for key in ("wall_s", "cpu_s", "wall_ref", "cpu_ref")},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    result["ref_s"] = result["wall_s"] / result["wall_ref"]
    if tracer:
        result["layers"] = tracer.metrics()
        tracer.uninstall()
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
