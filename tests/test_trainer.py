from dataclasses import replace

import numpy as np
import pytest

import samb.tensor as T
from samb.alignment import domain_loss, grl
from samb.attention import GumbelConfig, MessagePassingMode
from samb.data import Dataset, SyntheticSpec, batch_iter, generate
from samb.errors import ConfigError
from samb.model import ModelConfig
from samb.trainer import MetricLog, MetricRecord, Scheme, TrainConfig, Trainer, evaluate

from helpers import two_forward_step


@pytest.fixture(autouse=True)
def fresh_tape():
    T.clear_tape()
    yield
    T.clear_tape()


@pytest.fixture(scope="module")
def splits():
    return generate(SyntheticSpec(train_per_class=6, eval_per_class=3,
                                  image_size=8, seed=11))


def tiny_train_cfg(**kw):
    model = kw.pop("model", None) or ModelConfig(
        image_size=8, patch_size=4, embed_dim=8, depth=1, heads=2,
        num_classes=4, num_group_tokens=2, mode=MessagePassingMode.SAMB_D,
        gumbel=GumbelConfig(noise_enabled=False))
    defaults = dict(model=model, scheme=Scheme.ADA, iterations_1=2,
                    iterations_2=2, batch_size=8, seed=5)
    defaults.update(kw)
    return TrainConfig(**defaults)


def make_trainer(splits, **kw):
    return Trainer(tiny_train_cfg(**kw), splits["source_train"],
                   splits["target_train"], splits["source_eval"],
                   splits["target_eval"])


def empty_like(ds):
    return Dataset(images=ds.images[:0], labels=ds.labels[:0], domain=ds.domain,
                   num_classes=ds.num_classes)


def param_bytes(trainer):
    return {k: v.data.tobytes() for k, v in trainer.named_params().items()}


def grad_bytes(trainer):
    return {k: None if v.grad is None else v.grad.tobytes()
            for k, v in trainer.named_params().items()}


class TestRunMechanics:
    def test_zero_iterations_leaves_params_unchanged(self, splits):
        t = make_trainer(splits, iterations_1=0, iterations_2=0)
        before = param_bytes(t)
        log = t.run()
        assert param_bytes(t) == before
        assert log.records == []

    def test_params_change_after_a_step(self, splits):
        t = make_trainer(splits, iterations_1=1, iterations_2=0)
        before = param_bytes(t)
        t.run()
        after = param_bytes(t)
        assert any(after[k] != before[k] for k in before)

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_every_scheme_runs_and_tags_stages(self, splits, scheme):
        t = make_trainer(splits, scheme=scheme, iterations_1=2, iterations_2=2)
        log = t.run()
        two_stage = scheme in (Scheme.ADA_THEN_PST, Scheme.PST_THEN_ADA,
                               Scheme.ADA_THEN_JOINT)
        stages = [r.stage for r in log.records]
        assert stages == ([1, 1, 2, 2] if two_stage else [1, 1])
        assert [r.iteration for r in log.records] == list(
            range(1, len(stages) + 1))

    def test_eval_only_on_final_iteration_by_default(self, splits):
        t = make_trainer(splits, iterations_1=3, iterations_2=0)
        log = t.run()
        assert all(r.acc_src is None for r in log.records[:-1])
        assert log.records[-1].acc_src is not None
        assert log.records[-1].acc_tgt is not None

    def test_eval_every(self, splits):
        t = make_trainer(splits, iterations_1=4, iterations_2=0, eval_every=2)
        log = t.run()
        evald = [r.iteration for r in log.records if r.acc_src is not None]
        assert evald == [2, 4]

    def test_seconds_column_zero_without_wallclock(self, splits):
        log = make_trainer(splits, iterations_1=2, iterations_2=0).run()
        assert all(r.seconds == 0.0 for r in log.records)

    def test_outputs_written(self, splits, tmp_path):
        t = make_trainer(splits, scheme=Scheme.ADA_THEN_JOINT,
                         iterations_1=1, iterations_2=1)
        t.run(str(tmp_path))
        assert (tmp_path / "checkpoint_stage1.samb").exists()
        assert (tmp_path / "checkpoint_stage2.samb").exists()
        lines = (tmp_path / "metrics.csv").read_text().strip().split("\n")
        assert lines[0] == MetricLog.HEADER
        assert len(lines) == 3

    @pytest.mark.parametrize("split", ["source_train", "target_train"])
    def test_empty_training_split_rejected(self, splits, split):
        ds = splits[split]
        empty = Dataset(images=ds.images[:0], labels=ds.labels[:0],
                        domain=ds.domain, num_classes=ds.num_classes)
        with pytest.raises(ConfigError, match="empty"):
            make_trainer({**splits, split: empty})

    @pytest.mark.parametrize("split, name", [("source_eval", "source evaluation"),
                                             ("target_eval", "target evaluation")])
    def test_empty_eval_split_rejected(self, splits, split, name):
        with pytest.raises(ConfigError, match=f"the {name} split is empty"):
            make_trainer({**splits, split: empty_like(splits[split])})

    @pytest.mark.parametrize("split, name", [("target_train", "target training"),
                                             ("source_eval", "source evaluation"),
                                             ("target_eval", "target evaluation")])
    @pytest.mark.parametrize("change", ["classes", "geometry"])
    def test_split_unlike_source_train_rejected(self, splits, split, name, change):
        ds = splits[split]
        if change == "classes":
            ds = replace(ds, num_classes=5)
        else:
            ds = replace(ds, images=ds.images.repeat(2, axis=2).repeat(2, axis=3))
        with pytest.raises(ConfigError, match=f"the {name} split has .*, but the "
                                              "source training split has 4 classes "
                                              r"and \[3, 8, 8\] images"):
            make_trainer({**splits, split: ds})

    @pytest.mark.parametrize("split, name", [("source_train", "source training"),
                                             ("source_eval", "source evaluation"),
                                             ("target_eval", "target evaluation")])
    @pytest.mark.parametrize("unlabelled", ["one", "all"])
    def test_unlabelled_sample_rejected(self, splits, split, name, unlabelled):
        ds = splits[split]
        if unlabelled == "all":
            ds = ds.without_labels()
        else:
            labels = ds.labels.copy()
            labels[-1] = -1
            ds = replace(ds, labels=labels)
        with pytest.raises(ConfigError, match=f"the {name} split has unlabelled samples"):
            make_trainer({**splits, split: ds})

    def test_bad_config(self):
        with pytest.raises(ConfigError):
            tiny_train_cfg(iterations_1=-1)
        with pytest.raises(ConfigError):
            tiny_train_cfg(lr=0.0)

    @pytest.mark.parametrize("lr", [np.nan, np.inf, -np.inf])
    def test_non_finite_lr_rejected(self, lr):
        with pytest.raises(ConfigError, match="lr must be finite"):
            tiny_train_cfg(lr=lr)


class TestDeterminism:
    def test_bit_identical_runs(self, splits, tmp_path):
        blobs = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            d.mkdir()
            t = make_trainer(splits, scheme=Scheme.ADA_THEN_JOINT,
                             iterations_1=2, iterations_2=2)
            t.run(str(d))
            blobs.append(((d / "checkpoint_stage2.samb").read_bytes(),
                          (d / "metrics.csv").read_bytes()))
        assert blobs[0] == blobs[1]

    def test_seed_changes_trajectory(self, splits):
        a = make_trainer(splits, seed=1, iterations_1=2, iterations_2=0)
        b = make_trainer(splits, seed=2, iterations_1=2, iterations_2=0)
        a.run()
        b.run()
        assert param_bytes(a) != param_bytes(b)

    def test_two_stage_with_empty_second_equals_single_stage(self, splits):
        a = make_trainer(splits, scheme=Scheme.ADA, iterations_1=3,
                         iterations_2=0)
        b = make_trainer(splits, scheme=Scheme.ADA_THEN_PST, iterations_1=3,
                         iterations_2=0)
        a.run()
        b.run()
        assert param_bytes(a) == param_bytes(b)


class TestTape:
    @pytest.mark.parametrize("kind, nodes", [("ada", 30), ("joint", 32)])
    def test_desk_step_records_its_nodes(self, kind, nodes):
        # the README model: per forward one embedding node, two nodes per
        # block (attention and MLP branch), the final layer norm and one
        # fusion-head node
        splits = generate(SyntheticSpec(num_classes=4, train_per_class=8,
                                        eval_per_class=2, image_size=16, seed=3))
        model = ModelConfig(embed_dim=16, depth=2, heads=2, num_group_tokens=4,
                            mode=MessagePassingMode.SAMB_D)
        trainer = Trainer(TrainConfig(model=model, scheme=Scheme.ADA_THEN_JOINT, lr=0.01),
                          splits["source_train"], splits["target_train"],
                          splits["source_eval"], splits["target_eval"])
        trainer._step(kind, 0.1)
        assert len(T.tape().nodes) == nodes


class TestStepOracle:
    def test_single_ada_step_matches_manual_composition(self, splits):
        """Replays iteration 1 of an ADA run by hand and compares every
        parameter bit for bit."""
        t1 = make_trainer(splits, iterations_1=1, iterations_2=0)
        t1.run()

        t2 = make_trainer(splits, iterations_1=1, iterations_2=0)
        sb, _ = next(t2._src_iter)
        tb, _ = next(t2._tgt_iter)
        lam = 0.0  # warm-up schedule starts at zero
        out_s = t2.model.forward(sb.images, train=True, rng=t2.gumbel_rng)
        out_t = t2.model.forward(tb.images, train=True, rng=t2.gumbel_rng)
        total = T.cross_entropy(out_s.logits, sb.labels) + domain_loss(
            grl(out_s.feature, lam), grl(out_t.feature, lam), t2.disc)
        T.backward(total)
        T.sgd_step(t2._all_params(), t2.cfg.lr, t2.cfg.momentum,
                   t2.cfg.weight_decay, t2.opt_state)
        assert param_bytes(t1) == param_bytes(t2)

    def test_pst_with_true_labels_matches_supervised_composition(self, splits):
        """If pseudo-labels equal the ground truth, one PST step must be the
        supervised two-batch step."""
        truth = splits["target_train"].labels

        t1 = make_trainer(splits, scheme=Scheme.PST, iterations_1=1,
                          iterations_2=0)
        t1.refresh_pseudo_labels = lambda: setattr(t1, "pseudo_labels", truth)
        t1.run()

        t2 = make_trainer(splits, scheme=Scheme.PST, iterations_1=1,
                          iterations_2=0)
        sb, _ = next(t2._src_iter)
        tb, _ = next(t2._tgt_iter)
        out_s = t2.model.forward(sb.images, train=True, rng=t2.gumbel_rng)
        out_t = t2.model.forward(tb.images, train=True, rng=t2.gumbel_rng)
        total = (T.cross_entropy(out_s.logits, sb.labels)
                 + T.cross_entropy(out_t.logits, truth[tb.sample_ids]))
        T.backward(total)
        T.sgd_step(t2._all_params(), t2.cfg.lr, t2.cfg.momentum,
                   t2.cfg.weight_decay, t2.opt_state)
        assert param_bytes(t1) == param_bytes(t2)

    @pytest.mark.parametrize("sizes", [(5, 3), (4, 1)], ids=["5+3", "4+1"])
    @pytest.mark.parametrize("kind", ["ada", "pst", "joint"])
    @pytest.mark.parametrize("mode", list(MessagePassingMode))
    def test_paired_step_matches_two_forward_step(self, splits, mode, kind, sizes):
        """One step's gradients, losses and Gumbel stream are those of the
        step with one training forward per domain, with noise on in two
        blocks and unequal batches, one of them a single sample."""
        model = ModelConfig(image_size=8, patch_size=4, embed_dim=8, depth=2, heads=2,
                            num_classes=4, num_group_tokens=2, mode=mode)
        cfg = tiny_train_cfg(model=model, batch_size=sizes[0])
        source, target = (Dataset(images=splits[name].images[:n],
                                  labels=splits[name].labels[:n],
                                  domain=splits[name].domain, num_classes=4)
                          for name, n in zip(("source_train", "target_train"), sizes))
        paired, oracle = (Trainer(cfg, source, target) for _ in range(2))
        losses = paired._step(kind, 0.3)
        assert losses == two_forward_step(oracle, kind, 0.3)
        assert grad_bytes(paired) == grad_bytes(oracle)
        assert (paired.gumbel_rng.bit_generator.state
                == oracle.gumbel_rng.bit_generator.state)

    def test_trainer_never_reads_target_labels(self, splits):
        t = make_trainer(splits)
        assert t.target_train.labels is None


class TestDomainShiftGap:
    def test_source_trained_model_drops_on_target(self):
        """The synthetic shift is nontrivial: with noise 0.2 and brightness
        +0.3, a model trained on source only loses > 10 accuracy points on
        the target eval split (mean over 3 seeds)."""
        from samb.data import SyntheticSpec, generate
        from samb.alignment import GrlConfig

        splits = generate(SyntheticSpec(train_per_class=50, eval_per_class=50,
                                        image_size=16, noise_sigma=0.2,
                                        brightness_delta=0.3, seed=0))
        gaps = []
        for seed in (0, 1, 2):
            model = ModelConfig(image_size=16, patch_size=4, embed_dim=16,
                                depth=2, heads=2, num_classes=4,
                                num_group_tokens=4,
                                mode=MessagePassingMode.VANILLA_CLS)
            cfg = TrainConfig(model=model, scheme=Scheme.ADA,
                              iterations_1=300, iterations_2=0, batch_size=16,
                              seed=seed, grl=GrlConfig(lambda_max=0.0))
            t = Trainer(cfg, splits["source_train"], splits["target_train"],
                        splits["source_eval"], splits["target_eval"])
            last = t.run().records[-1]
            gaps.append(last.acc_src - last.acc_tgt)
        assert np.mean(gaps) > 0.10, gaps


class TestEvaluate:
    def test_matches_manual_recount(self, splits):
        t = make_trainer(splits)
        ds = splits["source_eval"]
        acc = evaluate(t.model, ds, batch_size=5)
        correct = 0
        for batch in batch_iter(ds, 5, seed=0, shuffle=False):
            out = t.model.forward(batch.images, train=False)
            correct += int((np.argmax(out.logits.data, axis=1)
                            == batch.labels).sum())
        T.clear_tape()
        assert acc == correct / len(ds)

    def test_inference_paths_record_no_tape(self, splits):
        t = make_trainer(splits)
        w = T.Tensor(np.ones(3), requires_grad=True)
        T.sum_all(w)
        nodes = list(T.tape().nodes)
        evaluate(t.model, splits["source_eval"], batch_size=5)
        t.refresh_pseudo_labels()
        assert T.tape().nodes == nodes

    def test_unlabeled_dataset_rejected(self, splits):
        t = make_trainer(splits)
        with pytest.raises(ConfigError):
            evaluate(t.model, splits["target_eval"].without_labels())

    def test_empty_dataset_rejected(self, splits):
        t = make_trainer(splits)
        with pytest.raises(ConfigError, match="empty"):
            evaluate(t.model, empty_like(splits["target_eval"]))


class TestMetricLog:
    def test_iterations_must_increase(self):
        log = MetricLog()
        log.append(MetricRecord(1, 1, 0.0, 0.0, None, None, 0.0))
        with pytest.raises(ConfigError):
            log.append(MetricRecord(1, 1, 0.0, 0.0, None, None, 0.0))

    def test_csv_blank_cells_for_missing_accuracy(self, tmp_path):
        log = MetricLog()
        log.append(MetricRecord(1, 1, 0.5, 1.25, None, None, 0.0))
        log.append(MetricRecord(2, 1, 0.25, 1.0, 0.75, 0.5, 0.0))
        path = tmp_path / "m.csv"
        log.to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[1] == "1,1,0.5,1.25,,,0.000000"
        assert lines[2] == "2,1,0.25,1,0.750000,0.500000,0.000000"
