import hashlib
import os
import re
import shutil
import struct
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import samb.cli
import samb.model
import samb.tensor as T
from samb.alignment import GrlConfig
from samb.cli import main, parse_config, train_config_from
from samb.data import Dataset, SyntheticSpec, generate
from samb.errors import (ConfigError, ContractError, DegenerateMaskError,
                         FormatError, NumericError)
from samb.model import ModelConfig, VitSamb
from samb.attention import GumbelConfig, MessagePassingMode
from samb.trainer import Scheme, TrainConfig


@pytest.fixture(autouse=True)
def fresh_tape():
    T.clear_tape()
    yield
    T.clear_tape()


SPEC_TEXT = """\
# tiny dataset for cli round trips
num_classes = 4
train_per_class = 6
eval_per_class = 3
image_size = 8
seed = 11
"""

TRAIN_TEXT = """\
data_dir = {data_dir}
patch_size = 4
embed_dim = 8
depth = 1
heads = 2
num_group_tokens = 2
mode = samb-d
gumbel_noise = false
scheme = ada
iterations_1 = 2
iterations_2 = 0
batch_size = 8
seed = 5
"""


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    spec = root / "spec.cfg"
    spec.write_text(SPEC_TEXT)
    out = root / "data"
    assert main(["gen-data", "--spec", str(spec), "--out", str(out)]) == 0
    return out


def write_train_cfg(path, data_dir, **extra):
    """TRAIN_TEXT with each key of ``extra`` set to its value, replaced in place
    of the key's line or appended."""
    lines = [line for line in TRAIN_TEXT.format(data_dir=data_dir).splitlines()
             if line.split(" = ")[0] not in extra]
    lines += [f"{k} = {v}" for k, v in extra.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


class TestParseConfig:
    def test_comments_whitespace_and_types(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("a = 1  # trailing comment\n\n  b=two \n# full line\n")
        assert parse_config(p) == {"a": "1", "b": "two"}

    def test_missing_equals(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("just a line\n")
        with pytest.raises(ConfigError, match="c.cfg:1"):
            parse_config(p)

    def test_duplicate_key(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("a=1\na=2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(p)


class TestGenData:
    def test_four_files(self, data_dir):
        names = sorted(f.name for f in data_dir.iterdir())
        assert names == ["source_eval.sdsh", "source_train.sdsh",
                         "target_eval.sdsh", "target_train.sdsh"]

    def test_idempotent_byte_identical(self, data_dir, tmp_path):
        spec = tmp_path / "spec.cfg"
        spec.write_text(SPEC_TEXT)
        out = tmp_path / "again"
        assert main(["gen-data", "--spec", str(spec), "--out", str(out)]) == 0
        for f in data_dir.iterdir():
            assert (out / f.name).read_bytes() == f.read_bytes()

    def test_malformed_spec_exit_2(self, tmp_path, capsys):
        spec = tmp_path / "bad.cfg"
        spec.write_text("num_classes = twelve\n")
        assert main(["gen-data", "--spec", str(spec),
                     "--out", str(tmp_path / "o")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_key_exit_2(self, tmp_path):
        spec = tmp_path / "bad.cfg"
        spec.write_text("frobnicate = 1\n")
        assert main(["gen-data", "--spec", str(spec),
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("key, value", [
        ("image_size", "0"), ("image_size", "-8"), ("train_per_class", "-1"),
        ("eval_per_class", "-2"), ("seed", "-1")])
    def test_out_of_range_key_exit_2(self, tmp_path, capsys, key, value):
        spec = tmp_path / "bad.cfg"
        spec.write_text(f"{key} = {value}\n")
        out = tmp_path / "o"
        assert main(["gen-data", "--spec", str(spec), "--out", str(out)]) == 2
        assert f"{key} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("image_size", "100000"),
                                            ("train_per_class", "1000000000")])
    def test_split_above_the_size_cap_exit_2(self, tmp_path, capsys, key, value):
        spec = tmp_path / "big.cfg"
        spec.write_text(f"{key} = {value}\n")
        out = tmp_path / "o"
        assert main(["gen-data", "--spec", str(spec), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "one split's pixels would take" in err and "cap of 256 MiB" in err
        assert f"{key} = {value}" in err
        assert not out.exists()

    def test_empty_spec_uses_synthetic_spec_defaults(self, tmp_path):
        spec = tmp_path / "empty.cfg"
        spec.write_text("")
        out = tmp_path / "o"
        assert main(["gen-data", "--spec", str(spec), "--out", str(out)]) == 0
        for name, ds in generate(SyntheticSpec()).items():
            ds.save(tmp_path / name)
            assert (out / f"{name}.sdsh").read_bytes() == (tmp_path / name).read_bytes()


class TestTrain:
    def test_outputs_and_manifest_hash(self, data_dir, tmp_path):
        cfg = write_train_cfg(tmp_path / "t.cfg", data_dir)
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "checkpoint_stage1.samb").exists()
        lines = (out / "metrics.csv").read_text().strip().split("\n")
        assert lines[0] == "iter,stage,l_cls,l_d,acc_src,acc_tgt,seconds"
        assert len(lines) == 3

        man = (out / "manifest.txt").read_text().strip().split("\n")
        assert man[-1].startswith("config_hash=")
        digest = hashlib.sha256("\n".join(man[:-1]).encode()).hexdigest()
        assert man[-1] == f"config_hash={digest}"
        assert man == sorted(man[:-1]) + [man[-1]]

    def test_cli_overrides_land_in_manifest(self, data_dir, tmp_path):
        cfg = write_train_cfg(tmp_path / "t.cfg", data_dir)
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out),
                     "--seed", "9", "--iterations-1", "1"]) == 0
        man = (out / "manifest.txt").read_text()
        assert "seed=9" in man
        assert "iterations_1=1" in man

    def test_manifest_pins_resolved_defaults(self, data_dir, tmp_path):
        # lr = 0.01 and momentum = 0.9 are the defaults, spelled differently
        cfg = write_train_cfg(tmp_path / "t.cfg", data_dir)
        spelled = write_train_cfg(tmp_path / "s.cfg", data_dir, lr="1e-2",
                                  momentum="0.90")
        manifests = []
        for path, sub in ((cfg, "a"), (spelled, "b")):
            out = tmp_path / sub
            assert main(["train", "--config", str(path), "--out", str(out)]) == 0
            manifests.append((out / "manifest.txt").read_text())
        assert manifests[0] == manifests[1]
        lines = manifests[0].strip().split("\n")
        assert len(lines) == 21 + 1
        assert "batch_size=8" in lines and "lambda_max=1.0" in lines
        assert "mode=samb-d" in lines and "gumbel_noise=false" in lines

    def test_deterministic_across_invocations(self, data_dir, tmp_path):
        cfg = write_train_cfg(tmp_path / "t.cfg", data_dir)
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
            outs.append((out / "checkpoint_stage1.samb").read_bytes()
                        + (out / "metrics.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_missing_data_dir_exit_4(self, tmp_path):
        cfg = write_train_cfg(tmp_path / "t.cfg", tmp_path / "nowhere")
        assert main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 4

    def test_hostile_dataset_header_exit_4(self, data_dir, tmp_path):
        hostile = tmp_path / "data"
        shutil.copytree(data_dir, hostile)
        (hostile / "source_train.sdsh").write_bytes(
            b"SDSH" + struct.pack("<IIIIII", 1, 2 ** 31, 3, 4096, 4096, 4))
        cfg = write_train_cfg(tmp_path / "t.cfg", hostile)
        assert main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 4

    def test_zero_channel_dataset_exit_4(self, data_dir, tmp_path, capsys):
        hostile = tmp_path / "data"
        shutil.copytree(data_dir, hostile)
        for name in ("source_train", "source_eval", "target_train", "target_eval"):
            ds = Dataset.load(hostile / f"{name}.sdsh", name.split("_")[0])
            Dataset(images=ds.images[:, :0], labels=ds.labels, domain=ds.domain,
                    num_classes=ds.num_classes).save(hostile / f"{name}.sdsh")
        cfg = write_train_cfg(tmp_path / "t.cfg", hostile)
        assert main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 4
        assert "zero dimension" in capsys.readouterr().err

    def test_non_finite_pixel_exit_4(self, data_dir, tmp_path, capsys):
        hostile = tmp_path / "data"
        shutil.copytree(data_dir, hostile)
        path = hostile / "target_eval.sdsh"
        blob = bytearray(path.read_bytes())
        struct.pack_into("<f", blob, 28 + 4, np.nan)      # sample 0's first pixel
        path.write_bytes(bytes(blob))
        cfg = write_train_cfg(tmp_path / "t.cfg", hostile, mode="samb")
        assert main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 4
        assert "sample 0 has a non-finite pixel" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["samb", "vanilla"])
    def test_non_finite_logits_exit_3(self, data_dir, tmp_path, capsys, mode):
        # one step at lr 1e300 leaves finite weights whose forward overflows
        cfg = write_train_cfg(tmp_path / "t.cfg", data_dir, mode=mode,
                              lr="1e300", iterations_1=1)
        assert main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 3
        assert "non-finite logits or features" in capsys.readouterr().err

    def test_diverging_run_prints_only_the_numeric_failure(self, tmp_path):
        # README's train.cfg at lr 1e5 overflows in the layer norm and the
        # assignment logits before the logits check ends the run; numpy's
        # warnings would reach stderr ahead of the message
        spec = tmp_path / "spec.cfg"
        spec.write_text("num_classes = 4\ntrain_per_class = 50\neval_per_class = 50\n"
                        "image_size = 16\nseed = 0\n")
        assert main(["gen-data", "--spec", str(spec), "--out", str(tmp_path / "data")]) == 0
        cfg = tmp_path / "train.cfg"
        cfg.write_text(f"data_dir = {tmp_path / 'data'}\nembed_dim = 16\ndepth = 2\n"
                       "heads = 2\nnum_group_tokens = 4\nmode = samb-d\n"
                       "scheme = ada-then-joint\niterations_1 = 300\niterations_2 = 300\n"
                       "lr = 1e5\nseed = 0\n")
        src = os.path.dirname(os.path.dirname(samb.cli.__file__))
        env = dict(os.environ, PYTHONWARNINGS="default", OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-m", "samb.cli", "train", "--config",
                               str(cfg), "--out", str(tmp_path / "o")],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 3
        assert proc.stderr == ("numeric failure: iteration 22: block 1: gumbel_assign: "
                               "non-finite assignment logits\n")

    def test_numeric_failure_names_block_and_iteration(self, data_dir, tmp_path, capsys):
        # at lr 1e8 an early step leaves weights whose assignment logits
        # overflow in the next forward
        cfg = write_train_cfg(tmp_path / "t.cfg", data_dir, lr="1e8", iterations_1=30)
        assert main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        found = re.search(r"numeric failure: iteration (\d+): block (\d+): gumbel_assign: "
                          r"non-finite assignment logits", err)
        assert found, err
        assert 1 < int(found[1]) <= 30 and found[2] == "0"      # depth = 1

    def test_fully_masked_row_names_block_and_iteration(self, data_dir, tmp_path,
                                                        capsys, monkeypatch):
        # depth 2: the masks of iteration 1 are block 0, 1 of the paired
        # source and target pass
        masks, calls = samb.model.mode_masks, []

        def cut(*args):
            mask = masks(*args)
            if len(calls) == 1:
                mask[..., 0, :] = -np.inf
            calls.append(mask)
            return mask

        monkeypatch.setattr(samb.model, "mode_masks", cut)
        cfg = write_train_cfg(tmp_path / "t.cfg", data_dir, depth=2)
        assert main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 3
        assert ("numeric failure: iteration 1: block 1: softmax: a row is fully masked"
                in capsys.readouterr().err)

    def test_out_of_memory_exit_2(self, data_dir, tmp_path, capsys, monkeypatch):
        def run(raw, out_dir):
            raise MemoryError("Unable to allocate 20.0 GiB for an array")

        monkeypatch.setattr(samb.cli, "_run_training", run)
        cfg = write_train_cfg(tmp_path / "t.cfg", data_dir)
        assert main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert ("error: out of memory: Unable to allocate 20.0 GiB for an array"
                in capsys.readouterr().err)

    def test_empty_training_split_exit_2(self, data_dir, tmp_path, capsys):
        empty = tmp_path / "data"
        shutil.copytree(data_dir, empty)
        ds = Dataset.load(empty / "target_train.sdsh", "target")
        Dataset(images=ds.images[:0], labels=None, domain="target",
                num_classes=ds.num_classes).save(empty / "target_train.sdsh")
        cfg = write_train_cfg(tmp_path / "t.cfg", empty)
        assert main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert "target training split is empty" in capsys.readouterr().err

    @pytest.mark.parametrize("split, name", [("source_eval", "source evaluation"),
                                             ("target_eval", "target evaluation")])
    def test_empty_eval_split_exit_2(self, data_dir, tmp_path, capsys, split, name):
        empty = tmp_path / "data"
        shutil.copytree(data_dir, empty)
        ds = Dataset.load(empty / f"{split}.sdsh", split.split("_")[0])
        Dataset(images=ds.images[:0], labels=None, domain=ds.domain,
                num_classes=ds.num_classes).save(empty / f"{split}.sdsh")
        cfg = write_train_cfg(tmp_path / "t.cfg", empty)
        assert main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert f"the {name} split is empty" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("momentum", "-0.1"), ("momentum", "1.0"), ("weight_decay", "-1e-4"),
        ("eval_every", "-1"), ("lambda_max", "-1"), ("lambda_max", "nan"),
        ("gamma", "inf"), ("gamma", "-2"), ("lr", "nan"), ("lr", "inf"),
        ("patch_size", "0"), ("patch_size", "-4"), ("heads", "0"), ("heads", "-2"),
        ("embed_dim", "0"), ("embed_dim", "-8"), ("depth", "0"), ("depth", "-1"),
        ("mlp_ratio", "0"), ("mlp_ratio", "-1"), ("seed", "-1")])
    def test_out_of_range_key_exit_2(self, data_dir, tmp_path, capsys, key, value):
        cfg = write_train_cfg(tmp_path / "t.cfg", data_dir, **{key: value})
        assert main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert f"{key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [
        dict(embed_dim="100000"), dict(embed_dim="16", depth="2", mlp_ratio="100000"),
        dict(depth="100000")], ids=["embed_dim", "mlp_ratio", "depth"])
    def test_model_above_the_size_cap_exit_2(self, data_dir, tmp_path, capsys, extra):
        cfg = write_train_cfg(tmp_path / "t.cfg", data_dir, **extra)
        assert main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "the model parameters would take" in err and "cap of 256 MiB" in err
        assert all(f"{key} = {value}" in err for key, value in extra.items())

    def test_class_count_above_the_size_cap_exit_2(self, data_dir, tmp_path, capsys):
        # a head of 2**31 classes would take 256 GiB
        hostile = tmp_path / "data"
        shutil.copytree(data_dir, hostile)
        for path in hostile.glob("*.sdsh"):
            blob = bytearray(path.read_bytes())
            struct.pack_into("<I", blob, 24, 2 ** 31)          # the header's num_classes
            path.write_bytes(bytes(blob))
        cfg = write_train_cfg(tmp_path / "t.cfg", hostile)
        assert main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "the model parameters would take" in err
        assert "num_classes = 2147483648" in err and "from the data" in err

    def test_negative_seed_override_exit_2(self, data_dir, tmp_path, capsys):
        cfg = write_train_cfg(tmp_path / "t.cfg", data_dir)
        out = tmp_path / "o"
        assert main(["train", "--config", str(cfg), "--out", str(out),
                     "--seed", "-5"]) == 2
        assert "seed must be >= 0, got -5" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("split, change, message", [
        ("target_eval", "classes", "target evaluation split has 5 classes"),
        ("target_eval", "geometry", "target evaluation split has 4 classes and [3, 16, 16]"),
        ("source_train", "unlabel all", "source training split has unlabelled"),
        ("source_train", "unlabel one", "source training split has unlabelled"),
        ("target_eval", "unlabel one", "target evaluation split has unlabelled")])
    def test_split_contract_exit_2(self, data_dir, tmp_path, capsys, split,
                                   change, message):
        broken = tmp_path / "data"
        shutil.copytree(data_dir, broken)
        ds = Dataset.load(broken / f"{split}.sdsh", split.split("_")[0])
        if change == "classes":
            ds = replace(ds, num_classes=5)
        elif change == "geometry":
            ds = replace(ds, images=ds.images.repeat(2, axis=2).repeat(2, axis=3))
        elif change == "unlabel all":
            ds = ds.without_labels()
        else:
            ds.labels[0] = -1
        ds.save(broken / f"{split}.sdsh")
        cfg = write_train_cfg(tmp_path / "t.cfg", broken)
        out = tmp_path / "o"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert list(out.glob("*.samb")) == []

    def test_temperature_key_rejected(self, data_dir, tmp_path):
        cfg = write_train_cfg(tmp_path / "t.cfg", data_dir, temperature=0.5)
        assert main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2

    def test_bad_scheme_exit_2(self, data_dir, tmp_path):
        cfg = write_train_cfg(tmp_path / "t.cfg", data_dir)
        assert main(["train", "--config", str(cfg), "--out",
                     str(tmp_path / "o"), "--scheme", "bogus"]) == 2


class TestConfigKeys:
    def test_every_key_set(self, data_dir):
        src = Dataset.load(data_dir / "source_train.sdsh")
        raw = dict(data_dir="d", seed="7", patch_size="2", embed_dim="12",
                   depth="3", heads="3", mlp_ratio="2", num_group_tokens="3",
                   mode="g-l-d", gumbel_noise="no", scheme="pst-then-ada",
                   iterations_1="11", iterations_2="12", lr="0.05",
                   momentum="0.5", weight_decay="0.001", batch_size="4",
                   lambda_max="0.7", gamma="3.5", eval_every="5",
                   wallclock="yes")
        assert len(raw) == 21
        cfg, resolved = train_config_from(raw, src)
        assert resolved == dict(raw, gumbel_noise="false", wallclock="true")
        assert cfg == TrainConfig(
            model=ModelConfig(image_size=8, patch_size=2, in_channels=3,
                              embed_dim=12, depth=3, heads=3, mlp_ratio=2,
                              num_classes=4, num_group_tokens=3,
                              mode=MessagePassingMode.G_L_D,
                              gumbel=GumbelConfig(noise_enabled=False)),
            scheme=Scheme.PST_THEN_ADA, iterations_1=11, iterations_2=12,
            lr=0.05, momentum=0.5, weight_decay=0.001, batch_size=4, seed=7,
            grl=GrlConfig(lambda_max=0.7, gamma=3.5), eval_every=5,
            wallclock=True)
        defaults, resolved = train_config_from({"data_dir": "d"}, src)
        assert sorted(resolved) == sorted(raw)
        assert defaults == TrainConfig(model=ModelConfig(image_size=8, in_channels=3,
                                                         num_classes=4))

        def by_key(c):
            return {**vars(c), **vars(c.model), **vars(c.grl),
                    "gumbel_noise": c.model.gumbel.noise_enabled}
        # every key was set to a value other than its default
        assert [k for k in raw if k != "data_dir"
                and by_key(cfg)[k] == by_key(defaults)[k]] == []

    @pytest.mark.parametrize("key", ["image_size", "in_channels", "num_classes",
                                     "noise_enabled", "rng_seed", "model", "grl",
                                     "gumbel"])
    def test_field_fixed_elsewhere_is_unknown_key(self, data_dir, tmp_path, capsys, key):
        cfg = write_train_cfg(tmp_path / "t.cfg", data_dir, **{key: 1})
        assert main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert f"unknown config keys: ['{key}']" in capsys.readouterr().err


class TestSweep:
    def test_token_axis(self, data_dir, tmp_path):
        cfg = write_train_cfg(tmp_path / "t.cfg", data_dir)
        out = tmp_path / "sweep"
        assert main(["sweep", "--axis", "tokens", "--values", "1,2",
                     "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().strip().split("\n")
        assert lines[0] == "axis,value,status,final_acc_src,final_acc_tgt"
        assert len(lines) == 3
        for sub in ("tokens_1", "tokens_2"):
            assert (out / sub / "metrics.csv").exists()

    def test_failed_point_recorded_not_fatal(self, data_dir, tmp_path):
        cfg = write_train_cfg(tmp_path / "t.cfg", data_dir)
        out = tmp_path / "sweep"
        assert main(["sweep", "--axis", "tokens", "--values", "2,999",
                     "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "sweep.csv").read_text().strip().split("\n")
        assert rows[1].startswith("tokens,2,ok")
        assert rows[2].startswith("tokens,999,error")

    def test_unknown_axis_is_rejected_before_the_sweep(self, data_dir, tmp_path, capsys):
        cfg = write_train_cfg(tmp_path / "t.cfg", data_dir)
        with pytest.raises(SystemExit) as exited:
            main(["sweep", "--axis", "bogus", "--values", "1",
                  "--config", str(cfg), "--out", str(tmp_path / "sweep")])
        assert exited.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    def test_a_bug_in_a_point_stops_the_sweep(self, data_dir, tmp_path, monkeypatch):
        def run(raw, out_dir):
            raise TypeError("a bug")

        monkeypatch.setattr(samb.cli, "_run_training", run)
        cfg = write_train_cfg(tmp_path / "t.cfg", data_dir)
        with pytest.raises(TypeError, match="a bug"):
            main(["sweep", "--axis", "tokens", "--values", "1,2",
                  "--config", str(cfg), "--out", str(tmp_path / "sweep")])

    @pytest.mark.parametrize("error", samb.cli._EXIT_FAILURES)
    def test_each_recorded_failure_has_an_exit_code(self, data_dir, tmp_path,
                                                    monkeypatch, capsys, error):
        def run(raw, out_dir):
            raise error("failed", 0) if error is FormatError else error("failed")

        prefix, code = {ConfigError: ("error", 2), ContractError: ("error", 2),
                        MemoryError: ("error: out of memory", 2),
                        NumericError: ("numeric failure", 3),
                        DegenerateMaskError: ("numeric failure", 3),
                        FormatError: ("I/O error", 4), OSError: ("I/O error", 4)}[error]
        monkeypatch.setattr(samb.cli, "_run_training", run)
        cfg = write_train_cfg(tmp_path / "t.cfg", data_dir)
        assert main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == code
        assert capsys.readouterr().err.startswith(f"{prefix}: failed")


class TestExportAttn:
    def test_grids_match_in_process_assignments(self, data_dir, tmp_path):
        cfg_path = write_train_cfg(tmp_path / "t.cfg", data_dir)
        run = tmp_path / "run"
        assert main(["train", "--config", str(cfg_path),
                     "--out", str(run)]) == 0
        out = tmp_path / "attn"
        ckpt = run / "checkpoint_stage1.samb"
        data = data_dir / "target_eval.sdsh"
        assert main(["export-attn", "--checkpoint", str(ckpt),
                     "--config", str(cfg_path), "--data", str(data),
                     "--out", str(out)]) == 0

        # recompute the assignments in process and compare the text grids
        model = VitSamb(ModelConfig(image_size=8, patch_size=4, embed_dim=8,
                                    depth=1, heads=2, num_classes=4,
                                    num_group_tokens=2,
                                    mode=MessagePassingMode.SAMB_D,
                                    gumbel=GumbelConfig(noise_enabled=False)),
                        np.random.default_rng(0))
        model.load(ckpt)
        ds = Dataset.load(data, "target")
        fwd = model.forward(ds.images.astype(np.float64), train=False)
        for sid in range(len(ds)):
            text = (out / f"sample_{sid:05d}.txt").read_text()
            hard = fwd.assignments[0][sid]
            expected = ["layer 0"]
            for row in range(2):
                expected.append(" ".join(str(int(c))
                                         for c in hard[row * 2:(row + 1) * 2]))
            assert text == "\n".join(expected) + "\n"

        csv_lines = (out / "assignments.csv").read_text().strip().split("\n")
        assert csv_lines[0] == "sample_id,layer,token_index,row,col,group"
        assert len(csv_lines) == 1 + len(ds) * 4  # one row per image token

    def test_records_no_tape(self, data_dir, tmp_path):
        cfg_path = write_train_cfg(tmp_path / "t.cfg", data_dir)
        run = tmp_path / "run"
        assert main(["train", "--config", str(cfg_path), "--out", str(run)]) == 0
        w = T.Tensor(np.ones(3), requires_grad=True)
        T.sum_all(w)
        nodes = list(T.tape().nodes)
        assert main(["export-attn", "--checkpoint", str(run / "checkpoint_stage1.samb"),
                     "--config", str(cfg_path),
                     "--data", str(data_dir / "target_eval.sdsh"),
                     "--out", str(tmp_path / "attn")]) == 0
        assert T.tape().nodes == nodes

    def test_static_mode_exit_2(self, data_dir, tmp_path):
        cfg = write_train_cfg(tmp_path / "t.cfg", data_dir)
        run = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(run)]) == 0
        static_cfg = tmp_path / "s.cfg"
        static_cfg.write_text(
            cfg.read_text().replace("mode = samb-d", "mode = vanilla"))
        assert main(["export-attn",
                     "--checkpoint", str(run / "checkpoint_stage1.samb"),
                     "--config", str(static_cfg),
                     "--data", str(data_dir / "target_eval.sdsh"),
                     "--out", str(tmp_path / "a")]) == 2

    def test_corrupt_checkpoint_exit_4(self, data_dir, tmp_path):
        cfg = write_train_cfg(tmp_path / "t.cfg", data_dir)
        bad = tmp_path / "bad.samb"
        bad.write_bytes(b"garbage")
        assert main(["export-attn", "--checkpoint", str(bad),
                     "--config", str(cfg),
                     "--data", str(data_dir / "target_eval.sdsh"),
                     "--out", str(tmp_path / "a")]) == 4

    def test_checkpoint_rank_beyond_numpy_limit_exit_4(self, data_dir, tmp_path, capsys):
        # one record "w" of rank 65 and one payload value; reshape would fail
        cfg = write_train_cfg(tmp_path / "t.cfg", data_dir)
        bad = tmp_path / "bad.samb"
        bad.write_bytes(b"SAMB" + struct.pack("<2I", 1, 1) + b"w"
                        + struct.pack("<66I", 65, *(1,) * 65) + bytes(8))
        assert main(["export-attn", "--checkpoint", str(bad),
                     "--config", str(cfg),
                     "--data", str(data_dir / "target_eval.sdsh"),
                     "--out", str(tmp_path / "a")]) == 4
        assert "rank 65" in capsys.readouterr().err
