"""samb benchmark.

    python3 perfbench/run.py --workload desk-train|wide-train|infer \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The inputs derive from ``--seed``; every unit
(one ``samb train``, or the infer phase) runs in a fresh process with one
BLAS thread.  ``--trace 0`` repeats units for about ``--seconds`` seconds
and reports the end-to-end metrics; ``--trace 1`` runs one untraced unit
and two traced units of the same inputs, asserts that the exact counts
repeat and reports the per-layer metrics and the tracing overhead.  The
last stdout line is the result; the line before it records the
environment.  Spans and results are kept under ``.bench_build/perfbench``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
sys.path.insert(0, HERE)

from tracer import OP_CATEGORIES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# one thread on both sides of any comparison; it is at most nproc
BLAS_THREADS = 1
SETUP_PROBES = 4
RUN_BUDGET_S = 170     # a run must end within 180 s

END_TO_END = {
    "setup_s": "s", "samples_per_s": "images/s", "step_ms_p50": "ms",
    "step_ms_p90": "ms", "peak_rss_mb": "MB", "acc_tgt": "fraction",
}

PER_LAYER = {
    "tensor.tape_nodes": "count", "tensor.backward_nodes": "count",
    **{f"tensor.fwd.{c}_ms": "ms" for c in OP_CATEGORIES},
    **{f"tensor.bwd.{c}_ms": "ms" for c in OP_CATEGORIES},
    "tensor.backward_ms": "ms", "tensor.sgd_ms": "ms", "tensor.tape_mb": "MB",
    "tensor.matmul_mflop": "MFLOP", "tensor.softmax_share": "fraction",
    "tensor.ckpt_save_ms": "ms", "tensor.ckpt_load_ms": "ms",
    "attention.fwd_ms": "ms", "attention.bwd_ms": "ms",
    "attention.gumbel_ms": "ms", "attention.masks_ms": "ms",
    "model.fwd_ms": "ms", "model.fwd_self_ms": "ms", "model.bwd_self_ms": "ms",
    "model.forwards": "count", "model.nodes_per_fwd": "count",
    "model.gflops": "GFLOP/s",
    "alignment.fwd_ms": "ms", "alignment.bwd_ms": "ms",
    "pseudo_label.build_table_ms": "ms", "pseudo_label.refreshes": "count",
    "trainer.refresh_ms": "ms", "trainer.evaluate_ms": "ms",
    "trainer.step_self_ms": "ms",
    "data.load_ms": "ms", "data.batch_ms": "ms", "data.generate_s": "s",
    "cli.setup_ms": "ms", "cli.write_ms": "ms", "cli.export_attn_s": "s",
    "trace.step_ms": "ms", "trace.self_sum_ms": "ms", "trace.overhead_pct": "%",
}

# layer metrics that are counts, not times: reported from one traced unit
COUNTS = ("tensor.tape_nodes", "tensor.backward_nodes", "tensor.tape_mb",
          "tensor.matmul_mflop",
          "model.forwards", "model.nodes_per_fwd", "pseudo_label.refreshes")


class UnitError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = str(BLAS_THREADS)
    return env


def spawn(args, request: dict) -> dict:
    """Run one worker to completion and return its JSON result; the worker
    is killed if the run's time budget ends first."""
    request = dict(request, t_spawn=time.monotonic())
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                           json.dumps(request)],
                          cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=max(1.0, args.deadline - time.monotonic()))
    if proc.returncode != 0:
        raise UnitError(f"{request['kind']} unit exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(args, blas_threads) -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads, "machine": platform.machine(),
    }


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def warm_up(args, base: dict) -> list:
    """The workload's untimed units; their checks still count.  infer's
    warm-up unit also runs export-attn, which timed units leave out."""
    return [spawn(args, dict(base, export=True,
                             out=os.path.join(base["workdir"], f"warmup{i}")))
            for i in range(WORKLOADS[args.workload].warmup_units)]


def untraced(args, base: dict):
    setups = [spawn(args, dict(base, probe=True,
                               out=os.path.join(base["workdir"], f"probe{i}")))["setup_s"]
              for i in range(SETUP_PROBES)]
    warm = warm_up(args, base)
    units = []
    t0 = time.monotonic()
    while True:
        t_unit = time.monotonic()
        units.append(spawn(args, dict(base, out=os.path.join(base["workdir"],
                                                              f"unit{len(units)}"))))
        units[-1]["wall_s"] = time.monotonic() - t_unit
        mean_wall = statistics.fmean(u["wall_s"] for u in units)
        if time.monotonic() - t0 + mean_wall > args.seconds:
            break
    steps = [ms for u in units for ms in u["step_ms"]]
    metrics = {
        "setup_s": statistics.median(setups + [u["setup_s"] for u in units]),
        "samples_per_s": statistics.median(u["samples"] / u["phase_s"] for u in units),
        "step_ms_p50": statistics.median(steps),
        "step_ms_p90": p90(steps),
        "peak_rss_mb": statistics.median(u["peak_rss_mb"] for u in units),
        "acc_tgt": statistics.median(u["acc_tgt"] for u in units),
    }
    return metrics, END_TO_END, warm + units


def traced(args, base: dict, prep: dict):
    warm = warm_up(args, base)
    plain = spawn(args, dict(base, out=os.path.join(base["workdir"], "plain")))
    runs = []
    for i in range(2):
        spans = os.path.join(OUT, "traces", f"{args.workload}-seed{args.seed}-{i}.json")
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        runs.append(spawn(args, dict(base, trace=True, export=True, spans_path=spans,
                                     out=os.path.join(base["workdir"], f"traced{i}"))))
    same = runs[0]["exact"] == runs[1]["exact"]
    if not same:
        print(f"error: exact counts differ between two traced runs of one seed: "
              f"{runs[0]['exact']} != {runs[1]['exact']}", file=sys.stderr)
    metrics = {k: (v if k in COUNTS else statistics.fmean(r["layers"][k] for r in runs))
               for k, v in runs[0]["layers"].items()}
    metrics["data.generate_s"] = prep["generate_s"]
    # median step (iteration or forward batch) of the traced units against
    # the untraced one: steadier than whole-unit wall time
    traced_ms = statistics.median(ms for r in runs for ms in r["step_ms"])
    metrics["trace.overhead_pct"] = 100.0 * (traced_ms / statistics.median(plain["step_ms"]) - 1.0)
    checks = warm + [plain] + runs + [{"attempted": 1, "failed": 0 if same else 1,
                                       "errors": []}]
    return metrics, PER_LAYER, checks


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--tiny", action="store_true",
                   help="smoke-test sizes; the figures mean nothing")
    args = p.parse_args(argv)
    args.deadline = time.monotonic() + RUN_BUDGET_S
    # SIGTERM unwinds like an exception, so a running worker is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "samb", "__init__.py")):
        print(f"error: no samb sources under {ROOT}/src", file=sys.stderr)
        return 2

    workdir = os.path.join(OUT, "work", f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    base = {"workload": args.workload, "seed": args.seed, "tiny": args.tiny,
            "workdir": workdir, "trace": False, "probe": False, "export": False}
    try:
        prep = spawn(args, dict(base, kind="prep"))
        base["kind"] = WORKLOADS[args.workload].kind
        if args.trace:
            metrics, units_of, checked = traced(args, base, prep)
        else:
            metrics, units_of, checked = untraced(args, base)
    except (UnitError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = set(units_of) - set(metrics)
    bad = [k for k, v in metrics.items() if not np.isfinite(v)]
    if missing or bad:
        print(f"error: metrics missing {sorted(missing)} or non-finite {bad}",
              file=sys.stderr)
        return 1
    attempted = sum(u["attempted"] for u in checked)
    failed = sum(u["failed"] for u in checked)
    for u in checked:
        for e in u["errors"]:
            print(f"check failed: {e}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units_of[k]} for k in units_of}}
    env = environment(args, prep["blas_threads"])
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}"
                           f"{'-tiny' if args.tiny else ''}.json"),
              "w") as f:
        json.dump({"env": env, "result": result,
                   "units": [{k: v for k, v in u.items() if k != "step_ms"}
                             for u in checked]}, f, indent=1)
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
