"""One benchmark unit in a fresh process.

    python3 perfbench/worker.py '<json request>'

Kinds: ``prep`` writes a workload's inputs (SDSH splits, train.cfg and, for
infer, a briefly trained checkpoint); ``train`` runs ``samb train`` through
``samb.cli.main``; ``infer`` loads the checkpoint and runs ``evaluate``
and one ``refresh_pseudo_labels`` (the timed phase), then, with ``export``
set, ``samb export-attn``.  With ``probe`` set
the unit stops at its first training step or forward batch, so only
set-up is timed.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import json
import os
import resource
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import samb.cli as cli  # noqa: E402
import samb.data as data  # noqa: E402
import samb.model as model_mod  # noqa: E402
import samb.tensor as T  # noqa: E402
import samb.trainer as trainer_mod  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import MODEL_SEED, WORKLOADS, config_text, with_tiny  # noqa: E402


class SetupDone(BaseException):
    """Raised by a probe at its first step; not an error of the program."""


class Checks:
    """Counts checked operations and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(what)


def blas_threads():
    """The thread count OpenBLAS reports in this process, or None."""
    with open("/proc/self/maps") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def checkpoint_roundtrip(checks: Checks, cfg, path: str, out_dir: str):
    """Load ``path`` into a fresh model, save it, reload and save again:
    the two saves must be byte-identical and hold the original records."""
    a, b = os.path.join(out_dir, "rt_a.samb"), os.path.join(out_dir, "rt_b.samb")
    m1 = model_mod.VitSamb(cfg.model, np.random.default_rng(1))
    m1.load(path)
    m1.save(a)
    m2 = model_mod.VitSamb(cfg.model, np.random.default_rng(2))
    m2.load(a)
    m2.save(b)
    with open(a, "rb") as fa, open(b, "rb") as fb:
        same = fa.read() == fb.read()
    original = T.load_checkpoint(path)
    same = same and all(original[k].data.tobytes() == t.data.tobytes()
                        for k, t in m2.named_params().items())
    checks.check(same, f"checkpoint {path} does not reload to identical bytes")


# ---------------------------------------------------------------------------

def prep(req) -> dict:
    w = WORKLOADS[req["workload"]]
    tiny = w.tiny if req["tiny"] else {}
    seed, work = req["seed"], req["workdir"]
    spec = with_tiny(w.spec, tiny)
    t0 = time.perf_counter()
    splits = data.generate(data.SyntheticSpec(seed=seed, **spec))
    if w.kind == "train":
        # the model trains on fixed data; the seed draws the evaluated splits
        fixed = data.generate(data.SyntheticSpec(seed=MODEL_SEED, **spec))
        splits.update(source_train=fixed["source_train"],
                      target_train=fixed["target_train"])
    generate_s = time.perf_counter() - t0
    data_dir = os.path.join(work, "data")
    os.makedirs(data_dir)
    for name, ds in splits.items():
        ds.save(os.path.join(data_dir, f"{name}.sdsh"))
    with open(os.path.join(work, "train.cfg"), "w") as f:
        f.write(config_text(with_tiny(w.config, tiny), data_dir))
    if w.kind == "infer":
        # the checkpoint: a brief training on fixed (MODEL_SEED) data
        small = data.SyntheticSpec(seed=MODEL_SEED, **with_tiny(w.prep_spec, tiny))
        small_dir = os.path.join(work, "prep_data")
        os.makedirs(small_dir)
        for name, ds in data.generate(small).items():
            ds.save(os.path.join(small_dir, f"{name}.sdsh"))
        prep_cfg = os.path.join(work, "prep.cfg")
        with open(prep_cfg, "w") as f:
            f.write(config_text(with_tiny(w.prep_config, tiny), small_dir))
        rc = cli.main(["train", "--config", prep_cfg,
                       "--out", os.path.join(work, "prep_run")])
        if rc != 0:
            raise RuntimeError(f"input preparation: samb train exited {rc}")
    return {"generate_s": generate_s}


def run_train(req, tracer) -> dict:
    work, out = req["workdir"], req["out"]
    cfg_path = os.path.join(work, "train.cfg")
    marks = {}
    inner_run = trainer_mod.Trainer.run

    def run(self, out_dir=None):
        marks["start"] = time.monotonic()
        marks["batch"] = self.cfg.batch_size
        if req["probe"]:
            raise SetupDone
        try:
            return inner_run(self, out_dir)
        finally:
            marks["end"] = time.monotonic()

    trainer_mod.Trainer.run = run
    try:
        rc = cli.main(["train", "--config", cfg_path, "--out", out])
    except SetupDone:
        return {"setup_s": marks["start"] - req["t_spawn"]}
    rss = peak_rss_mb()
    checks = Checks()
    checks.check(rc == 0, f"samb train exited {rc}")
    with open(os.path.join(out, "metrics.csv")) as f:
        rows = list(csv.DictReader(f))
    for r in rows:
        checks.check(np.isfinite(float(r["l_cls"])) and np.isfinite(float(r["l_d"])),
                     f"non-finite loss at iteration {r['iter']}")
        for key in ("acc_src", "acc_tgt"):
            if r[key]:
                checks.check(0.0 <= float(r[key]) <= 1.0,
                             f"{key} {r[key]} outside [0, 1]")
    seconds = np.array([float(r["seconds"]) for r in rows])
    step_ms = 1e3 * np.diff(seconds, prepend=0.0)
    ds = data.Dataset.load(os.path.join(work, "data", "source_train.sdsh"))
    cfg, _ = cli.train_config_from(cli.parse_config(cfg_path), ds)
    stage = sorted(p for p in os.listdir(out) if p.startswith("checkpoint_stage"))[-1]
    checkpoint_roundtrip(checks, cfg, os.path.join(out, stage), out)
    return {
        "setup_s": marks["start"] - req["t_spawn"],
        "phase_s": marks["end"] - marks["start"],
        "samples": 2 * marks["batch"] * len(rows),
        "steps": len(rows),
        "step_ms": step_ms.tolist(),
        "acc_tgt": float(rows[-1]["acc_tgt"]),
        "peak_rss_mb": rss,
        "attempted": checks.attempted, "failed": checks.failed,
        "errors": checks.errors,
    }


def check_export(checks: Checks, rc: int, cfg, attn_dir: str, n_eval: int):
    """export-attn exited 0 and every group id lies in [0, N)."""
    checks.check(rc == 0, f"samb export-attn exited {rc}")
    groups = np.full((n_eval, cfg.model.depth, cfg.model.num_patches), -1)
    with open(os.path.join(attn_dir, "assignments.csv")) as f:
        for r in csv.DictReader(f):
            groups[int(r["sample_id"]), int(r["layer"]), int(r["token_index"])] = int(r["group"])
    n_groups = cfg.model.num_group_tokens
    for sid in range(n_eval):
        checks.check(bool(np.all((groups[sid] >= 0) & (groups[sid] < n_groups))),
                     f"export-attn group ids of sample {sid} outside [0, {n_groups})")


def run_infer(req, tracer) -> dict:
    work, out = req["workdir"], req["out"]
    cfg_path = os.path.join(work, "train.cfg")
    ckpt = sorted(os.path.join(work, "prep_run", p)
                  for p in os.listdir(os.path.join(work, "prep_run"))
                  if p.startswith("checkpoint_stage"))[-1]
    splits = cli.load_datasets(os.path.join(work, "data"))
    cfg, _ = cli.train_config_from(cli.parse_config(cfg_path), splits["source_train"])
    trainer = trainer_mod.Trainer(cfg, splits["source_train"], splits["target_train"],
                                  splits["source_eval"], splits["target_eval"])
    trainer.model.load(ckpt)
    t_setup = time.monotonic()
    if req["probe"]:
        return {"setup_s": t_setup - req["t_spawn"]}

    forward_ms, samples = [], [0]
    inner_forward = model_mod.VitSamb.forward

    def forward(self, images, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return inner_forward(self, images, *args, **kwargs)
        finally:
            forward_ms.append(1e3 * (time.perf_counter() - t0))
            samples[0] += len(images)

    model_mod.VitSamb.forward = forward
    span = tracer.span if tracer else lambda name: contextlib.nullcontext()
    attn_dir = os.path.join(out, "attn")
    t0 = time.monotonic()
    with span("bench.infer"):
        acc = trainer_mod.evaluate(trainer.model, splits["target_eval"], cfg.batch_size)
        t1 = time.monotonic()
        trainer.refresh_pseudo_labels()
        t2 = time.monotonic()
        timed_forwards, timed_samples = len(forward_ms), samples[0]
        if req["export"]:
            with span("cli.export_attn"):
                rc = cli.main(["export-attn", "--checkpoint", ckpt, "--config", cfg_path,
                               "--data", os.path.join(work, "data", "target_eval.sdsh"),
                               "--out", attn_dir])
    t3 = time.monotonic()
    rss = peak_rss_mb()

    checks = Checks()
    checks.check(0.0 <= acc <= 1.0, f"accuracy {acc} outside [0, 1]")
    labels = trainer.pseudo_labels
    checks.check(labels is not None and len(labels) == len(splits["target_train"])
                 and labels.min() >= 0 and labels.max() < cfg.model.num_classes
                 and bool(np.all(np.isfinite(trainer.last_pseudo_table.distances))),
                 "pseudo-labels out of range or non-finite")
    if req["export"]:
        check_export(checks, rc, cfg, attn_dir, len(splits["target_eval"]))
    checkpoint_roundtrip(checks, cfg, ckpt, out)
    return {
        "setup_s": t_setup - req["t_spawn"],
        # the timed phase is evaluate and refresh; export-attn writes one
        # file per image, and its time follows the file system (see NOTES.md)
        "phase_s": t2 - t0,
        "parts_s": {"evaluate": t1 - t0, "refresh": t2 - t1, "export_attn": t3 - t2},
        "samples": timed_samples,
        # forwards under the trace root (export-attn's too); the step
        # latencies are those of the timed phase
        "steps": len(forward_ms),
        "step_ms": forward_ms[:timed_forwards],
        "acc_tgt": acc,
        "peak_rss_mb": rss,
        "attempted": checks.attempted, "failed": checks.failed,
        "errors": checks.errors,
    }


def main():
    req = json.loads(sys.argv[1])
    if req["kind"] == "prep":
        print(json.dumps(dict(prep(req), blas_threads=blas_threads())))
        return
    tracer = None
    if req["trace"]:
        tracer = Tracer()
        tracer.install()
    os.makedirs(req["out"], exist_ok=True)
    result = (run_train if req["kind"] == "train" else run_infer)(req, tracer)
    if tracer is not None and not req["probe"]:
        tracer.uninstall()
        w = WORKLOADS[req["workload"]]
        tracer.check_expected(w.layers)
        root = "trainer.run" if w.kind == "train" else "bench.infer"
        layers = tracer.summary(root, result["steps"])
        # the spans under the root must tile it: their self times add up
        # to the root's duration
        tiled = abs(layers["trace.self_sum_ms"] - layers["trace.step_ms"]) \
            <= 1e-6 * layers["trace.step_ms"]
        result["attempted"] += 1
        result["failed"] += 0 if tiled else 1
        if not tiled:
            result["errors"].append("traced self times do not add up to the step time")
        result["layers"] = layers
        result["exact"] = tracer.exact_counts()
        tracer.write_spans(req["spans_path"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
