"""Experiment driver: data generation, training, ablation sweeps, and
assignment-map export.

Config files are flat ``key=value`` text.  Every command is deterministic
under identical inputs.  Exit codes: 0 success, 2 config error or out of
memory, 3 numeric failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import os
import sys
from dataclasses import fields
from enum import Enum

import numpy as np

from . import tensor as T
from .alignment import GrlConfig
from .attention import GumbelConfig
from .data import Dataset, SyntheticSpec, batch_iter, generate
from .errors import (ConfigError, ContractError, DegenerateMaskError,
                     FormatError, NumericError)
from .model import ModelConfig, VitSamb
from .trainer import TrainConfig, Trainer


# ---------------------------------------------------------------------------
# flat key=value config files

def parse_config(path) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            key, value = key.strip(), value.strip()
            if not key:
                raise ConfigError(f"{path}:{lineno}: empty key")
            if key in out:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            out[key] = value
    return out


def _as_text(value) -> str:
    """A parsed key value as config text, which parses back to it."""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


class _KeyReader:
    """Reads keys parsed as their default's type; flags unknown keys at the end.

    ``resolved`` maps every key read to the text of its effective value, so a
    key spelled out at its default reads the same as one left out.
    """

    def __init__(self, raw: dict[str, str]):
        self.raw = raw
        self.resolved: dict[str, str] = {}

    def get(self, key, default):
        value = self._parse(key, default)
        self.resolved[key] = _as_text(value)
        return value

    def _parse(self, key, default):
        if key not in self.raw:
            return default
        value, kind = self.raw[key], type(default)
        if kind is bool:
            word = value.lower()
            if word in ("1", "true", "yes"):
                return True
            if word in ("0", "false", "no"):
                return False
            raise ConfigError(f"key {key!r}: expected boolean, got {value!r}")
        try:
            return kind(value)
        except ValueError:
            if issubclass(kind, Enum):
                valid = ", ".join(m.value for m in kind)
                raise ConfigError(f"invalid {key} {value!r}; expected one of: {valid}")
            raise ConfigError(f"key {key!r}: expected {kind.__name__}, got {value!r}")

    def fill(self, cls, **fixed):
        """An instance of dataclass ``cls`` with one key per field not fixed."""
        return cls(**fixed, **{f.name: self.get(f.name, f.default)
                               for f in fields(cls) if f.name not in fixed})

    def finish(self):
        unknown = set(self.raw) - set(self.resolved)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")


def spec_from_config(raw: dict[str, str]) -> SyntheticSpec:
    """Each SyntheticSpec field is a key, parsed as its default's type."""
    r = _KeyReader(raw)
    spec = r.fill(SyntheticSpec)
    r.finish()
    return spec


def train_config_from(raw: dict[str, str],
                      source_train: Dataset) -> tuple[TrainConfig, dict[str, str]]:
    """Build a TrainConfig; image geometry and class count come from the data.

    The keys are ``data_dir``, ``seed``, ``gumbel_noise`` and the fields of
    ModelConfig, GrlConfig and TrainConfig that are not fixed here.  Also
    returns every key's effective value as text, defaults included.
    """
    r = _KeyReader(raw)
    data_dir = r.get("data_dir", "")
    if not data_dir:
        raise ConfigError("config must set data_dir")
    seed = r.get("seed", TrainConfig.seed)
    _, c, h, _ = source_train.images.shape
    model = r.fill(ModelConfig, image_size=h, in_channels=c,
                   num_classes=source_train.num_classes,
                   gumbel=GumbelConfig(
                       noise_enabled=r.get("gumbel_noise", GumbelConfig.noise_enabled)))
    cfg = r.fill(TrainConfig, model=model, seed=seed, grl=r.fill(GrlConfig))
    r.finish()
    return cfg, r.resolved


def write_manifest(resolved: dict[str, str], out_dir: str):
    """Resolved config (every key, defaults included) plus a content hash,
    written before training starts."""
    lines = [f"{k}={resolved[k]}" for k in sorted(resolved)]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    with open(os.path.join(out_dir, "manifest.txt"), "w") as f:
        f.write("\n".join(lines))
        f.write(f"\nconfig_hash={digest}\n")


def load_datasets(data_dir: str) -> dict[str, Dataset]:
    out = {}
    for name in ("source_train", "source_eval", "target_train", "target_eval"):
        domain = name.split("_")[0]
        out[name] = Dataset.load(os.path.join(data_dir, f"{name}.sdsh"), domain)
    return out


# ---------------------------------------------------------------------------
# commands

def cmd_gen_data(args) -> int:
    spec = spec_from_config(parse_config(args.spec))
    os.makedirs(args.out, exist_ok=True)
    for name, ds in generate(spec).items():
        ds.save(os.path.join(args.out, f"{name}.sdsh"))
    return 0


def _apply_overrides(raw: dict[str, str], args) -> dict[str, str]:
    for key in ("scheme", "mode", "seed", "iterations_1", "iterations_2"):
        v = getattr(args, key, None)
        if v is not None:
            raw[key] = str(v)
    return raw


def _run_training(raw: dict[str, str], out_dir: str) -> Trainer:
    ds = load_datasets(raw.get("data_dir", ""))
    cfg, resolved = train_config_from(raw, ds["source_train"])
    os.makedirs(out_dir, exist_ok=True)
    write_manifest(resolved, out_dir)
    trainer = Trainer(cfg, ds["source_train"], ds["target_train"],
                      ds["source_eval"], ds["target_eval"])
    trainer.run(out_dir)
    return trainer

def cmd_train(args) -> int:
    raw = _apply_overrides(parse_config(args.config), args)
    _run_training(raw, args.out)
    return 0


_SWEEP_KEYS = {"tokens": "num_group_tokens", "scheme": "scheme", "mode": "mode"}
# (failure, message prefix, exit code) for each failure ``main`` maps to an
# exit code, first match first; a sweep records them and goes on
_EXITS = ((ConfigError, "error", 2), (ContractError, "error", 2),
          (MemoryError, "error: out of memory", 2),  # a backstop behind the size caps
          (NumericError, "numeric failure", 3), (DegenerateMaskError, "numeric failure", 3),
          (FormatError, "I/O error", 4), (OSError, "I/O error", 4))
_EXIT_FAILURES = tuple(kind for kind, _, _ in _EXITS)


def cmd_sweep(args) -> int:
    key = _SWEEP_KEYS[args.axis]
    base = parse_config(args.config)
    os.makedirs(args.out, exist_ok=True)
    rows = []
    for value in args.values.split(","):
        value = value.strip()
        raw = dict(base)
        raw[key] = value
        run_dir = os.path.join(args.out, f"{args.axis}_{value}")
        try:
            trainer = _run_training(raw, run_dir)
            last = trainer.log.records[-1]
            rows.append([args.axis, value, "ok",
                         f"{last.acc_src:.6f}" if last.acc_src is not None else "",
                         f"{last.acc_tgt:.6f}" if last.acc_tgt is not None else ""])
        except _EXIT_FAILURES as e:
            rows.append([args.axis, value, f"error: {e}", "", ""])
    with open(os.path.join(args.out, "sweep.csv"), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["axis", "value", "status", "final_acc_src", "final_acc_tgt"])
        w.writerows(rows)
    return 0


def cmd_export_attn(args) -> int:
    raw = parse_config(args.config)
    data = Dataset.load(args.data, "target")
    cfg, _ = train_config_from(raw, data)
    if not cfg.model.mode.dynamic:
        raise ContractError(
            f"mode {cfg.model.mode.value} has no dynamic assignments to export")
    model = VitSamb(cfg.model, np.random.default_rng(cfg.seed))
    model.load(args.checkpoint)
    os.makedirs(args.out, exist_ok=True)
    grid = cfg.model.grid
    csv_path = os.path.join(args.out, "assignments.csv")
    with open(csv_path, "w", newline="") as f, T.no_grad():
        w = csv.writer(f)
        w.writerow(["sample_id", "layer", "token_index", "row", "col", "group"])
        for batch in batch_iter(data, 16, seed=0, shuffle=False):
            out = model.forward(batch.images, train=False)
            for b, sid in enumerate(batch.sample_ids):
                lines = []
                for layer, assignment in enumerate(out.assignments):
                    hard = assignment[b]
                    lines.append(f"layer {layer}")
                    for row in range(grid):
                        cells = hard[row * grid:(row + 1) * grid]
                        lines.append(" ".join(str(int(c)) for c in cells))
                    for tok in range(len(hard)):
                        w.writerow([int(sid), layer, tok, tok // grid,
                                    tok % grid, int(hard[tok])])
                with open(os.path.join(args.out, f"sample_{int(sid):05d}.txt"),
                          "w") as g:
                    g.write("\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="samb",
                                description="group-token UDA experiment driver")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="write the four SDSH dataset splits")
    g.add_argument("--spec", required=True)
    g.add_argument("--out", required=True)
    g.set_defaults(fn=cmd_gen_data)

    t = sub.add_parser("train", help="run one training configuration")
    t.add_argument("--config", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--scheme")
    t.add_argument("--mode")
    t.add_argument("--seed", type=int)
    t.add_argument("--iterations-1", dest="iterations_1", type=int)
    t.add_argument("--iterations-2", dest="iterations_2", type=int)
    t.set_defaults(fn=cmd_train)

    s = sub.add_parser("sweep", help="ablation sweep over one axis")
    s.add_argument("--axis", required=True, choices=sorted(_SWEEP_KEYS))
    s.add_argument("--values", required=True)
    s.add_argument("--config", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_sweep)

    e = sub.add_parser("export-attn", help="dump per-layer assignment maps")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--config", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--out", required=True)
    e.set_defaults(fn=cmd_export_attn)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _EXIT_FAILURES as e:
        prefix, code = next((p, c) for kind, p, c in _EXITS if isinstance(e, kind))
        print(f"{prefix}: {e}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
