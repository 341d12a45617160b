"""Workload definitions: which CLI experiments each workload runs, and how.

Each workload is a closed loop with one client: a fresh process runs the
listed experiments back to back, then the next iteration starts. The
master seed of every experiment is the benchmark's ``--seed``.

Sizes are scaled down from the CLI defaults so that one iteration takes
several seconds on a 2-vCPU machine and a run can repeat it. Where a size
differs from the default, the reason is given next to it.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 20250817


@dataclass(frozen=True)
class Experiment:
    """One CLI invocation of a workload.

    label names the output files and the per-experiment metric
    (``<label>.wall_s``, ``<label>.wall_ref``); argv is everything after ``landscape-lab``
    except ``--seed`` and ``--out``, which the benchmark adds; config is a
    file name under ``perfbench/configs``; exit_codes are the codes that
    are correct on any seed.
    """

    label: str
    argv: tuple
    exit_codes: tuple = (0,)
    config: str | None = None

    @property
    def name(self) -> str:
        return self.argv[0]


# The plane experiments use M in the hundreds instead of the default 3, 10:
# at M <= 10 the number of Newton iterations a random surface needs swings
# by 2x from seed to seed (some surfaces stall seeds for the full 100
# iterations), and the M-sums are still cheap next to the per-call overhead
# at a few hundred. pr2d keeps two surfaces, M = 300, 1000, on the box
# [-1, 1] (441 Newton seeds per surface instead of 1681); it holds every
# population critical point, the minima +-(1, -1) on its corners, and the
# model calls of one random surface vary by about 3% between seeds. An
# ms2d_rank1 surface varies by about 20% (how long the polish phase runs
# after convergence depends on the surface's rounding), so ms2d_rank1 runs
# twelve random surfaces on the box [-0.5, 0.5] (121 seeds each), which
# averages that down to about 6% at the cost of two surfaces on [-1, 1].
#
# ms_rank2_dist runs 2 trials at one M. About one trial in eight stalls
# for the full 100 refinement iterations and then costs ten times a
# converged trial (about 1.2 s), so its time is too heavy-tailed to carry a
# bounded metric at any trial count that fits a run. regions_ms, at its
# default size, carries most of the quotient-path work; the 2 trials keep
# the 2-thread pool and the horizontal refinement exercised.
#
# The concentration runs keep M = 2e4 (ms) and 2e5 (pr) for assumptions
# and scale the samples down; rip runs at M = 100 000 instead of 500 000.
#
# The quotient-geometry and concentration experiments share one workload.
# On a shared 2-vCPU VM the machine's speed drifts by up to 30% between
# consecutive half-minute runs, so a run measures for about 50 s to narrow
# the spread across seeds, and the benchmark's total time budget allows
# that for two workloads, not three. The two still split the optimizations:
# plane_search exercises the Newton search and bypasses the quotient
# geometry and the M-sums; factor_concentration exercises those two and
# makes no damped-Newton call. The per-experiment wall times (per-layer
# metrics) tell the quotient part from the concentration part.
WORKLOADS = {
    "plane_search": (
        Experiment("pr2d", ("pr2d", "--grid", "-1:1:41", "--m", "300,1000")),
        Experiment(
            "ms2d_rank1",
            ("ms2d_rank1", "--grid", "-0.5:0.5:11", "--m", ",".join(str(m) for m in range(300, 851, 50))),
        ),
    ),
    "factor_concentration": (
        Experiment("ms_rank2_dist", ("ms_rank2_dist", "--trials", "2", "--m", "200")),
        Experiment("regions_ms", ("regions_ms",)),
        Experiment("regions_pr", ("regions_pr",)),
        Experiment(
            "assumptions_ms",
            ("assumptions", "--m", "20000"),
            exit_codes=(2,),
            config="assumptions_ms.cfg",
        ),
        # at M = 2e5 the sampled Hessian deviation sits close to its
        # threshold, so the verdict, and with it the exit code, depends on
        # the seed
        Experiment(
            "assumptions_pr",
            ("assumptions", "--m", "200000"),
            exit_codes=(0, 2),
            config="assumptions_pr.cfg",
        ),
        Experiment("rip", ("rip", "--m", "100000"), exit_codes=(2,)),
    ),
}

# Tiny versions of the same workloads for the smoke test: same experiments
# and layers, seconds in total.
TINY_WORKLOADS = {
    "plane_search": (
        Experiment("pr2d", ("pr2d", "--grid", "-0.3:0.3:9", "--m", "300")),
        Experiment("ms2d_rank1", ("ms2d_rank1", "--grid", "-0.3:0.3:9", "--m", "300")),
    ),
    "factor_concentration": (
        Experiment("ms_rank2_dist", ("ms_rank2_dist", "--trials", "2", "--m", "50")),
        Experiment("regions_ms", ("regions_ms",), config="tiny_regions.cfg"),
        Experiment("regions_pr", ("regions_pr",), config="tiny_regions.cfg"),
        Experiment(
            "assumptions_ms",
            ("assumptions", "--m", "200"),
            exit_codes=(0, 2),
            config="tiny_assumptions_ms.cfg",
        ),
        Experiment(
            "assumptions_pr",
            ("assumptions", "--m", "2000"),
            exit_codes=(0, 2),
            config="tiny_assumptions_pr.cfg",
        ),
        Experiment("rip", ("rip", "--m", "2000"), exit_codes=(0, 2)),
    ),
}

# every experiment label of the full workloads, in a fixed order
LABELS = tuple(e.label for exps in WORKLOADS.values() for e in exps)
