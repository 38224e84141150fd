"""The benchmark's workloads: input specs, training configs and the layers
each one must execute.

The model is fixed and the workload seed draws the data it is evaluated
on.  Every config keeps the README's ``seed = 0``; the training splits of
the train workloads and the data of the infer checkpoint come from
``samb.data.generate`` with seed 0, and the evaluated splits (the eval
splits of a train workload, every split of infer) with the workload seed.
A desk-scale training's final target accuracy ranges over about 0.5-0.9
between training seeds, which no per-run median can steady, so only the
evaluation varies with the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# the README's minimal train.cfg at the ROADMAP's desk scale
DESK_MODEL = dict(embed_dim=16, depth=2, heads=2, num_group_tokens=4,
                  mode="samb-d", scheme="ada-then-joint", lr=0.01)

# the acceptance experiment's data spec (tests/test_acceptance.py ADAPT_SPEC);
# the other SyntheticSpec fields keep their defaults
DESK_SPEC = dict(num_classes=4, train_per_class=50, eval_per_class=50,
                 image_size=16)

TRAIN_LAYERS = ("cli.main", "cli.write", "trainer.run", "trainer.evaluate",
                "alignment.domain_loss", "alignment.grl", "model.forward",
                "attention.attn", "attention.masks", "tensor.backward",
                "tensor.sgd", "tensor.ckpt_save", "tensor.ckpt_load",
                "data.load", "data.batch")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "train": one `samb train`; "infer": see worker
    spec: dict                # SyntheticSpec fields except seed
    config: dict              # train.cfg keys except data_dir, seed, wallclock
    layers: tuple             # spans the workload must record when traced
    tiny: dict = field(default_factory=dict)   # smoke-test overrides
    prep_spec: dict = field(default_factory=dict)    # infer: checkpoint data
    prep_config: dict = field(default_factory=dict)  # infer: brief training
    warmup_units: int = 0     # units run and checked before any is timed


WORKLOADS = {w.name: w for w in (
    Workload(
        name="desk-train", kind="train", spec=DESK_SPEC,
        config=dict(DESK_MODEL, iterations_1=400, iterations_2=400),
        layers=TRAIN_LAYERS + ("attention.gumbel", "trainer.refresh",
                               "pseudo_label.build_table"),
        tiny=dict(train_per_class=6, eval_per_class=3, iterations_1=3,
                  iterations_2=3)),
    Workload(
        name="wide-train", kind="train",
        spec=dict(DESK_SPEC, image_size=64, eval_per_class=10),
        config=dict(DESK_MODEL, mode="samb", scheme="ada", batch_size=8,
                    iterations_1=100, iterations_2=0),
        layers=TRAIN_LAYERS,
        tiny=dict(image_size=32, train_per_class=4, eval_per_class=2,
                  iterations_1=3)),
    Workload(
        name="infer", kind="infer",
        spec=dict(DESK_SPEC, train_per_class=1000, eval_per_class=1000),
        config=dict(DESK_MODEL, iterations_1=0, iterations_2=0),
        prep_spec=DESK_SPEC,
        prep_config=dict(DESK_MODEL, iterations_1=150, iterations_2=150),
        # right after its input preparation (which trains a model) the first
        # unit's forward p90 read 10-14 ms against 6-9.5 ms for the next ones
        warmup_units=1,
        layers=("trainer.evaluate", "trainer.refresh", "pseudo_label.build_table",
                "model.forward", "attention.attn", "attention.gumbel",
                "attention.masks", "cli.main", "cli.export_attn",
                "tensor.ckpt_save", "tensor.ckpt_load", "data.load", "data.batch"),
        tiny=dict(train_per_class=6, eval_per_class=3, iterations_1=2,
                  iterations_2=2)),
)}

# the training seed of every config and the data seed of what a model trains on
MODEL_SEED = 0


def with_tiny(values: dict, tiny: dict) -> dict:
    """``values`` with the smoke-test overrides for its own keys."""
    return {k: tiny.get(k, v) for k, v in values.items()}


def config_text(config: dict, data_dir: str) -> str:
    lines = [f"data_dir = {data_dir}"]
    lines += [f"{k} = {v}" for k, v in config.items()]
    lines += [f"seed = {MODEL_SEED}", "wallclock = true"]
    return "\n".join(lines) + "\n"
