"""Two-stage training orchestration: adversarial alignment (ADA),
pseudo-label self-training (PST), and their combinations.

One trainer thread owns every parameter and the gradient tape.  All
randomness derives from the config seed, so identical configs give
bit-identical checkpoints and metric logs.
"""

from __future__ import annotations

import csv
import sys
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from . import tensor as T
from .alignment import Discriminator, GrlConfig, domain_loss, grl
from .data import Dataset, batch_iter
from .errors import ConfigError, DegenerateMaskError, NumericError
from .model import ModelConfig, VitSamb
from .pseudo_label import build_table


class Scheme(Enum):
    ADA = "ada"
    PST = "pst"
    JOINT = "joint"
    ADA_THEN_PST = "ada-then-pst"
    PST_THEN_ADA = "pst-then-ada"
    ADA_THEN_JOINT = "ada-then-joint"


# phase kinds per stage; single-stage schemes run iterations_1 steps only
_PHASES = {
    Scheme.ADA: ("ada",),
    Scheme.PST: ("pst",),
    Scheme.JOINT: ("joint",),
    Scheme.ADA_THEN_PST: ("ada", "pst"),
    Scheme.PST_THEN_ADA: ("pst", "ada"),
    Scheme.ADA_THEN_JOINT: ("ada", "joint"),
}


@dataclass
class TrainConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    scheme: Scheme = Scheme.ADA_THEN_JOINT
    iterations_1: int = 200
    iterations_2: int = 200
    lr: float = 1e-2
    momentum: float = 0.9
    weight_decay: float = 1e-4
    batch_size: int = 16
    seed: int = 0
    grl: GrlConfig = field(default_factory=GrlConfig)
    eval_every: int = 0          # 0: evaluate only on the final iteration
    wallclock: bool = False      # real timings break bit-identical logs

    def __post_init__(self):
        if self.iterations_1 < 0 or self.iterations_2 < 0:
            raise ConfigError("iteration counts must be >= 0")
        if not 0.0 < self.lr < np.inf:
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        if self.batch_size < 1:
            raise ConfigError("batch size must be >= 1")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if not 0.0 <= self.weight_decay < np.inf:
            raise ConfigError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if self.eval_every < 0:
            raise ConfigError(f"eval_every must be >= 0, got {self.eval_every}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class MetricRecord:
    iteration: int
    stage: int
    l_cls: float
    l_d: float
    acc_src: Optional[float]
    acc_tgt: Optional[float]
    seconds: float


class MetricLog:
    HEADER = "iter,stage,l_cls,l_d,acc_src,acc_tgt,seconds"

    def __init__(self):
        self.records: list[MetricRecord] = []

    def append(self, rec: MetricRecord):
        if self.records and rec.iteration <= self.records[-1].iteration:
            raise ConfigError("metric iterations must be strictly increasing")
        self.records.append(rec)

    def to_csv(self, path):
        with open(path, "w", newline="") as f:
            f.write(self.HEADER + "\n")
            w = csv.writer(f)
            for r in self.records:
                w.writerow([r.iteration, r.stage,
                            f"{r.l_cls:.12g}", f"{r.l_d:.12g}",
                            "" if r.acc_src is None else f"{r.acc_src:.6f}",
                            "" if r.acc_tgt is None else f"{r.acc_tgt:.6f}",
                            f"{r.seconds:.6f}"])


def _infer(model: VitSamb, dataset: Dataset,
           batch_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Logits and features of every sample, in order, with Gumbel noise
    disabled; records no tape.  Non-finite values raise NumericError."""
    logits, feats = [], []
    with T.no_grad():
        for batch in batch_iter(dataset, batch_size, seed=0, shuffle=False):
            out = model.forward(batch.images, train=False)
            logits.append(out.logits.data)
            feats.append(out.feature.data)
    logits, feats = np.concatenate(logits), np.concatenate(feats)
    if not (np.isfinite(logits).all() and np.isfinite(feats).all()):
        raise NumericError(f"the forward over the {dataset.domain} split "
                           "gave non-finite logits or features")
    return logits, feats


def evaluate(model: VitSamb, dataset: Dataset, batch_size: int = 64) -> float:
    """Top-1 accuracy with Gumbel noise disabled; records no tape."""
    if len(dataset) == 0:
        raise ConfigError(f"evaluate: the {dataset.domain} dataset is empty")
    if dataset.labels is None:
        raise ConfigError("evaluate needs a labeled dataset")
    logits, _ = _infer(model, dataset, batch_size)
    return int((np.argmax(logits, axis=1) == dataset.labels).sum()) / len(dataset)


def _cycle(dataset: Dataset, batch_size: int, seed: int):
    """Endless shuffled batches; yields (batch, first_of_epoch)."""
    epoch = 0
    while True:
        first = True
        for batch in batch_iter(dataset, batch_size, seed, shuffle=True, epoch=epoch):
            yield batch, first
            first = False
        epoch += 1


class Trainer:
    def __init__(self, cfg: TrainConfig, source_train: Dataset,
                 target_train: Dataset, source_eval: Optional[Dataset] = None,
                 target_eval: Optional[Dataset] = None):
        def describe(ds):
            return f"{ds.num_classes} classes and {list(ds.images.shape[1:])} images"

        for name, ds in (("source training", source_train),
                         ("target training", target_train),
                         ("source evaluation", source_eval),
                         ("target evaluation", target_eval)):
            if ds is None:
                continue
            if len(ds) == 0:
                raise ConfigError(f"the {name} split is empty")
            if describe(ds) != describe(source_train):
                raise ConfigError(f"the {name} split has {describe(ds)}, but the "
                                  f"source training split has {describe(source_train)}")
            # the target training split is read without labels
            if name != "target training" and (ds.labels is None or (ds.labels < 0).any()):
                raise ConfigError(f"the {name} split has unlabelled samples")
        self.cfg = cfg
        self.source_train = source_train
        # the trainer's target path never sees labels
        self.target_train = target_train.without_labels()
        self.source_eval = source_eval
        self.target_eval = target_eval

        children = np.random.SeedSequence(cfg.seed).spawn(4)
        self.model = VitSamb(cfg.model, np.random.default_rng(children[0]))
        self.disc = Discriminator(cfg.model.embed_dim, np.random.default_rng(children[1]))
        self.gumbel_rng = np.random.default_rng(children[2])
        data_seeds = children[3].generate_state(2)
        self._src_iter = _cycle(source_train, cfg.batch_size, int(data_seeds[0]))
        self._tgt_iter = _cycle(self.target_train, cfg.batch_size, int(data_seeds[1]))

        self.opt_state: dict = {}                # id(param) -> SGD velocity
        self.log = MetricLog()
        self.pseudo_labels: Optional[np.ndarray] = None
        self._global_step = 0

    # -- pieces -------------------------------------------------------------

    def _all_params(self):
        return self.model.params() + self.disc.params()

    def named_params(self):
        return {**self.model.named_params(), **self.disc.named_params()}

    def save_checkpoint(self, path):
        T.save_checkpoint(path, self.named_params())

    def refresh_pseudo_labels(self):
        """Weighted k-means + one refinement over the full target train set;
        records no tape."""
        logits, feats = _infer(self.model, self.target_train, self.cfg.batch_size)
        probs = T._softmax(logits, 1)
        table = build_table(feats, probs)
        if len(np.unique(table.labels)) == 1:
            print("warning: degenerate pseudo-labels (single class)", file=sys.stderr)
        self.pseudo_labels = table.labels
        self.last_pseudo_table = table

    def _step(self, kind: str, lam: float):
        T.clear_tape()
        for p in self._all_params():
            p.zero_grad()
        sb, _ = next(self._src_iter)
        tb, first = next(self._tgt_iter)
        if kind in ("pst", "joint") and (first or self.pseudo_labels is None):
            self.refresh_pseudo_labels()

        out_s, out_t = self.model.forward(np.concatenate([sb.images, tb.images]), train=True,
                                          rng=self.gumbel_rng, split=len(sb.images))
        total = T.cross_entropy(out_s.logits, sb.labels)
        l_cls = total.item()
        if kind in ("pst", "joint"):
            pl = self.pseudo_labels[tb.sample_ids]
            tgt_cls = T.cross_entropy(out_t.logits, pl)
            l_cls += tgt_cls.item()
            total = total + tgt_cls
        l_d = 0.0
        if kind in ("ada", "joint"):
            ld = domain_loss(grl(out_s.feature, lam), grl(out_t.feature, lam),
                             self.disc)
            l_d = ld.item()
            total = total + ld
        if not np.isfinite(total.item()):
            raise NumericError(f"non-finite loss: l_cls={l_cls} l_d={l_d}")
        T.backward(total)
        T.sgd_step(self._all_params(), self.cfg.lr, self.cfg.momentum,
                   self.cfg.weight_decay, self.opt_state)
        return l_cls, l_d

    # -- the run ------------------------------------------------------------

    def run(self, out_dir=None) -> MetricLog:
        cfg = self.cfg
        phases = _PHASES[cfg.scheme]
        iters = [cfg.iterations_1, cfg.iterations_2][:len(phases)]
        total_steps = sum(iters)
        t0 = time.monotonic()
        for stage_idx, (kind, n_iter) in enumerate(zip(phases, iters), start=1):
            for _ in range(n_iter):
                progress = self._global_step / max(1, total_steps)
                lam = cfg.grl.lambda_at(progress) if kind in ("ada", "joint") else 0.0
                self._global_step += 1
                last = self._global_step == total_steps
                do_eval = last or (cfg.eval_every and
                                   self._global_step % cfg.eval_every == 0)
                acc_s = acc_t = None
                # one place names the iteration; a diverging step's overflow
                # reaches the user as the NumericError of a check, not as
                # numpy warnings ahead of it
                try:
                    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                        l_cls, l_d = self._step(kind, lam)
                        if do_eval and self.source_eval is not None:
                            acc_s = evaluate(self.model, self.source_eval, cfg.batch_size)
                        if do_eval and self.target_eval is not None:
                            acc_t = evaluate(self.model, self.target_eval, cfg.batch_size)
                except (NumericError, DegenerateMaskError) as e:
                    raise type(e)(f"iteration {self._global_step}: {e}") from e
                seconds = time.monotonic() - t0 if cfg.wallclock else 0.0
                self.log.append(MetricRecord(self._global_step, stage_idx,
                                             l_cls, l_d, acc_s, acc_t, seconds))
            if out_dir is not None:
                self.save_checkpoint(f"{out_dir}/checkpoint_stage{stage_idx}.samb")
        if out_dir is not None:
            self.log.to_csv(f"{out_dir}/metrics.csv")
        T.clear_tape()
        return self.log
