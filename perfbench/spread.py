"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/spread.py --workloads plane_search,factor_concentration \
        --seeds 1-10 [--out perfbench/baseline.json]

For every workload and seed it runs ``run.py --trace 0`` (and, with --out,
one ``--trace 1`` run at the default seed), then prints each end-to-end
metric's median, quartiles, n and spread: the distance between the
quartiles as a share of the median, as ``statistics.quantiles(values,
n=4)`` gives them. With --out it writes those numbers, the workload
configs, the bounds and the layer-to-metric map to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from run import summarize  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

# which end-to-end metric each layer's metrics should move, on which
# workload, and where the prediction is no change
LAYER_MAP = {
    "manifold": {
        "metrics": "manifold.{horizontal_basis,horizontal_project,solve_skew_sylvester}.{calls,self_s}, manifold.self_s",
        "should_move": "wall_ref, cpu_ref, regions_ms.wall_ref, ms_rank2_dist.wall_ref, assumptions_ms.wall_ref",
        "exercised_by": ["factor_concentration"],
        "no_change": ["plane_search"],
    },
    "risk_models": {
        "metrics": "risk_models.<Class>.{value,euclidean_grad,hess_vec}.{calls,self_s}, risk_models.SensingEnsemble.apply.*, risk_models.ensemble_bytes, risk_models.generate.*",
        "should_move": "wall_ref, cpu_ref, assumptions_*.wall_ref, rip.wall_ref, peak_rss_mb",
        "exercised_by": ["factor_concentration"],
        "no_change": ["plane_search"],
    },
    "spectral": {
        "metrics": "spectral.{dense_euclidean_hessian,min_eig_horizontal,min_eig_euclidean}.{calls,self_s}",
        "should_move": "wall_ref, cpu_ref, pr2d.wall_ref, ms2d_rank1.wall_ref, regions_ms.wall_ref",
        "exercised_by": ["plane_search", "factor_concentration"],
        "no_change": [],
    },
    "critical_points": {
        "metrics": "critical_points.damped_newton.*, newton_iters, converged_ratio, hessians_per_seed, refine_minimum_horizontal.*, refine_iters",
        "should_move": "wall_ref, cpu_ref, pr2d.wall_ref, ms2d_rank1.wall_ref",
        "exercised_by": ["plane_search"],
        "no_change": ["factor_concentration"],
    },
    "landscape": {
        "metrics": "landscape.sampler.{proposals,accepted,acceptance}, landscape.{check_assumptions,estimate_rip}.self_s",
        "should_move": "wall_ref, cpu_ref, regions_ms.wall_ref, assumptions_*.wall_ref",
        "exercised_by": ["factor_concentration"],
        "no_change": ["plane_search"],
    },
    "rng": {
        "metrics": "rng.normal.draws, rng.self_s",
        "should_move": "rip.wall_ref",
        "exercised_by": ["factor_concentration"],
        "no_change": ["plane_search"],
    },
    "experiments": {
        "metrics": "experiments.write.{bytes,self_s}, experiments.format_float.calls, experiments.pool.{busy_s,wait_s}",
        "should_move": "wall_ref",
        "exercised_by": ["plane_search"],
        "no_change": ["factor_concentration"],
    },
}


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["environment"] = json.loads(lines[0]).get("environment")
    return result


def stats(values: list) -> dict:
    row = summarize(values)
    row["spread"] = (row["q3"] - row["q1"]) / row["median"]
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    summary = {}
    failed = 0
    for workload in args.workloads.split(","):
        values = {}
        for seed in seeds:
            result = bench(workload, seed, spec["run_seconds"], 0)
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        summary[workload] = {name: stats(v) for name, v in values.items()}
        for name, row in summary[workload].items():
            flag = "" if row["spread"] <= bounds[name] / 3 else "  <-- above a third of the bound"
            print(
                f"{workload:<16} {name:<12} median={row['median']:.4f} q1={row['q1']:.4f} "
                f"q3={row['q3']:.4f} n={row['n']} spread={row['spread']:.3f} "
                f"bound={bounds[name]}{flag}",
                flush=True,
            )
    print(f"failed invocations: {failed}")
    if args.out:
        traces = {w: bench(w, DEFAULT_SEED, spec["run_seconds"], 1) for w in summary}
        doc = {
            "seeds": seeds,
            "run_seconds": spec["run_seconds"],
            "workloads": {
                w: {
                    "experiments": [
                        {"label": e.label, "argv": list(e.argv), "config": e.config,
                         "exit_codes": list(e.exit_codes)}
                        for e in WORKLOADS[w]
                    ],
                    "end_to_end": summary[w],
                    "trace": {
                        "seed": DEFAULT_SEED,
                        "failed": traces[w]["failed"],
                        "metrics": {k: v["value"] for k, v in traces[w]["metrics"].items()},
                    },
                }
                for w in summary
            },
            "environment": next(iter(traces.values()))["environment"],
            "bounds": bounds,
            "layer_map": LAYER_MAP,
        }
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
