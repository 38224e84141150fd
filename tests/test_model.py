import numpy as np
import pytest

import samb.model
import samb.tensor as T
from samb.attention import GumbelConfig, MessagePassingMode, mode_masks
from samb.errors import ConfigError, ContractError, DegenerateMaskError, NumericError
from samb.model import ModelConfig, VitSamb, fusion_head

from helpers import (finite_diff_grad, rel_err, unfused_embed, unfused_fusion_head,
                     unpruned_forward, use_lanes)


@pytest.fixture(autouse=True)
def fresh_tape():
    T.clear_tape()
    yield
    T.clear_tape()


def small_cfg(**kw):
    defaults = dict(image_size=16, patch_size=4, embed_dim=16, depth=2, heads=2,
                    num_classes=3, num_group_tokens=2,
                    mode=MessagePassingMode.SAMB_D,
                    gumbel=GumbelConfig(noise_enabled=False))
    defaults.update(kw)
    return ModelConfig(**defaults)


class TestPatchEmbed:
    def test_patch_count(self):
        assert small_cfg().num_patches == 16

    def test_zero_image_zero_weights(self):
        m = VitSamb(small_cfg(), np.random.default_rng(0))
        m.patch_w.data[:] = 0.0
        m.patch_b.data[:] = 0.0
        m.pos_embed.data[:] = 0.0
        tokens = m.patchify(np.zeros((1, 3, 16, 16))) @ m.patch_w.data
        assert np.all(tokens == 0)

    def test_sequence_length_with_group_tokens(self):
        cfg = small_cfg(num_group_tokens=4)
        assert cfg.layout.total == 16 + 4

    def test_indivisible_dims(self):
        with pytest.raises(ConfigError):
            ModelConfig(image_size=15, patch_size=4)

    def test_patchify_layout(self):
        # patch (0, 1) of a ramp image must contain exactly pixels [0:4, 4:8]
        img = np.arange(16 * 16, dtype=np.float64).reshape(1, 1, 16, 16)
        cfg = small_cfg(in_channels=1)
        m = VitSamb(cfg, np.random.default_rng(0))
        patches = m.patchify(img)
        expected = img[0, 0, 0:4, 4:8].reshape(-1)
        assert np.array_equal(patches[0, 1], expected)


class TestForward:
    def test_logits_shape(self):
        m = VitSamb(small_cfg(), np.random.default_rng(1))
        out = m.forward(np.random.default_rng(2).random((2, 3, 16, 16)))
        assert out.logits.shape == (2, 3)
        assert out.feature.shape == (2, 16)

    def test_single_group_fusion_is_identity(self):
        m = VitSamb(small_cfg(num_group_tokens=1, mode=MessagePassingMode.SAMB),
                    np.random.default_rng(3))
        out = m.forward(np.random.default_rng(4).random((2, 3, 16, 16)))
        assert np.array_equal(out.fusion_weights.data, np.ones((2, 1)))

    def test_fusion_weights_row_stochastic(self):
        m = VitSamb(small_cfg(num_group_tokens=4), np.random.default_rng(5))
        out = m.forward(np.random.default_rng(6).random((3, 3, 16, 16)))
        assert np.abs(out.fusion_weights.data.sum(axis=1) - 1.0).max() < 1e-12

    def test_eval_forward_deterministic(self):
        m = VitSamb(small_cfg(), np.random.default_rng(7))
        imgs = np.random.default_rng(8).random((2, 3, 16, 16))
        a = m.forward(imgs, train=False)
        T.clear_tape()
        b = m.forward(imgs, train=False)
        assert a.logits.data.tobytes() == b.logits.data.tobytes()

    def test_vanilla_uses_class_token(self):
        m = VitSamb(small_cfg(mode=MessagePassingMode.VANILLA_CLS),
                    np.random.default_rng(9))
        out = m.forward(np.random.default_rng(10).random((2, 3, 16, 16)))
        assert out.logits.shape == (2, 3)
        assert out.assignments == []

    def test_group_permutation_symmetry(self):
        # with dynamic assignment, permuting the group-token parameters
        # permutes the fusion weights and leaves the fused feature unchanged
        cfg = small_cfg(num_group_tokens=3, mode=MessagePassingMode.SAMB_D)
        imgs = np.random.default_rng(11).random((2, 3, 16, 16))
        m = VitSamb(cfg, np.random.default_rng(12))
        out = m.forward(imgs, train=False)
        perm = np.array([2, 0, 1])
        m.group_tokens.data = m.group_tokens.data[perm]
        T.clear_tape()
        out_p = m.forward(imgs, train=False)
        assert np.abs(out_p.fusion_weights.data
                      - out.fusion_weights.data[:, perm]).max() < 1e-10
        assert np.abs(out_p.feature.data - out.feature.data).max() < 1e-10

    @pytest.mark.parametrize("mode", [MessagePassingMode.SAMB_D,
                                      MessagePassingMode.G_L_D,
                                      MessagePassingMode.VANILLA_CLS])
    def test_end_to_end_gradients_vs_finite_differences(self, mode):
        cfg = small_cfg(mode=mode)
        model = VitSamb(cfg, np.random.default_rng(13))
        imgs = np.random.default_rng(14).random((2, 3, 16, 16))
        labels = np.array([0, 2])

        def loss_value():
            T.clear_tape()
            out = model.forward(imgs, train=False)
            return T.cross_entropy(out.logits, labels)

        checked = {"patch_w": model.patch_w,
                   "block0.attn.wq": model.blocks[0]["attn"].wq,
                   "block1.mlp_w1": model.blocks[1]["mlp_w1"],
                   "head_w": model.head_w}
        if model.group_tokens is not None:
            checked["group_tokens"] = model.group_tokens
        for name, p in checked.items():
            p.zero_grad()
            T.backward(loss_value())
            analytic = p.grad.copy()
            numeric = finite_diff_grad(lambda _: loss_value().item(),
                                       p.data, step=1e-4)
            assert rel_err(analytic, numeric) < 1e-4, name


def forward_and_grads(forward, model, imgs, train):
    """Outputs, hard assignments and every parameter gradient of a loss that
    reads both the logits and the fused feature, as the trainer's does."""
    labels = np.arange(len(imgs)) % model.cfg.num_classes
    c = T.Tensor(np.random.default_rng(21).standard_normal((len(imgs), model.cfg.embed_dim)))
    T.clear_tape()
    for p in model.params():
        p.zero_grad()
    out = forward(model, imgs, train=train, rng=np.random.default_rng(22))
    T.backward(T.cross_entropy(out.logits, labels) + T.mean_all(out.feature * c))
    T.clear_tape()
    result = {"logits": out.logits.data, "feature": out.feature.data,
              "fusion_weights": out.fusion_weights.data}
    result.update({f"hard{i}": hard for i, hard in enumerate(out.assignments)})
    result.update({k: p.grad for k, p in model.named_params().items()})
    return result


def output_bytes(out, rows=slice(None)):
    """The bytes of each output of a ForwardResult, restricted to ``rows``."""
    result = {"logits": out.logits.data[rows], "feature": out.feature.data[rows],
              "fusion_weights": out.fusion_weights.data[rows]}
    result.update({f"hard{i}": hard[rows] for i, hard in enumerate(out.assignments)})
    return {k: np.ascontiguousarray(v).tobytes() for k, v in result.items()}


class TestBatchInvariance:
    """A forward computes each sample on its own, so a forward over two
    stacked batches gives each one the bits of its own forward."""

    @pytest.mark.parametrize("sizes", [(3, 2), (3, 1)], ids=["3+2", "3+1"])
    @pytest.mark.parametrize("mode", list(MessagePassingMode))
    def test_paired_forward_matches_separate_forwards(self, mode, sizes):
        model = VitSamb(small_cfg(mode=mode, num_group_tokens=4), np.random.default_rng(34))
        imgs = np.random.default_rng(35).random((sum(sizes), 3, 16, 16))
        parts = imgs[:sizes[0]], imgs[sizes[0]:]
        separate = [output_bytes(model.forward(part, train=True)) for part in parts]
        paired = model.forward(imgs, train=True, split=sizes[0])
        assert [output_bytes(out) for out in paired] == separate
        # the whole batch's rows too, up to the head: BLAS may round the rows
        # of its one [B, d] product by B (a one-sample batch's goes to
        # gemv), so the paired forward runs the head on each batch
        whole = model.forward(imgs, train=True)
        for rows, expected in zip((slice(0, sizes[0]), slice(sizes[0], None)), separate):
            got = output_bytes(whole, rows)
            del got["logits"], expected["logits"]
            assert got == expected

    @pytest.mark.parametrize("split", [0, 4])
    def test_split_must_leave_two_batches(self, split):
        model = VitSamb(small_cfg(), np.random.default_rng(36))
        with pytest.raises(ContractError, match="empty"):
            model.forward(np.zeros((4, 3, 16, 16)), split=split)


def node_and_composition(build, params, c, split):
    """The output and every parameter gradient of ``sum(build() * c)``, once
    per builder in ``build``, each recorded under ``T.batch_split(split)``
    unless ``split`` is None."""
    results = []
    for make in build:
        T.clear_tape()
        for p in params:
            p.zero_grad()
        if split is None:
            out = make()
        else:
            with T.batch_split(split):
                out = make()
        results.append([len(T.tape().nodes)] + [np.asarray(o.data) for o in out])
        T.backward(T.sum_all(out[0] * c))
        results[-1] += [p.grad for p in params]
    return results


class TestFusedNodes:
    """The token embedding and the fusion head are one node each, with the
    output and gradients of the compositions they replace."""

    @pytest.mark.parametrize("split", [None, 1, 2])
    @pytest.mark.parametrize("mode", list(MessagePassingMode))
    def test_embed_matches_its_composition(self, mode, split):
        model = VitSamb(small_cfg(mode=mode, num_group_tokens=4), np.random.default_rng(40))
        rng = np.random.default_rng(41)
        patches = model.patchify(rng.random((3, 3, 16, 16)))
        c = T.Tensor(rng.standard_normal((3, model.cfg.layout.total, model.cfg.embed_dim)))
        node, composed = node_and_composition(
            [lambda: (model._embed(patches),), lambda: (unfused_embed(model, patches),)],
            model.params(), c, split)
        assert node[0] == 1
        for a, b in zip(node[1:], composed[1:]):
            assert (a is None and b is None) or np.array_equal(a, b)

    @pytest.mark.parametrize("split", [None, 1, 2])
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_fusion_head_matches_its_composition(self, n, split):
        rng = np.random.default_rng(42 + n)
        d = 16
        x = T.Tensor(rng.standard_normal((3, max(2, n), d)), requires_grad=True)
        query = T.Tensor(rng.standard_normal((d, 1)), requires_grad=True)
        c = T.Tensor(rng.standard_normal((3, d)))
        node, composed = node_and_composition(
            [lambda: fusion_head(x, query, n), lambda: unfused_fusion_head(x, query, n)],
            [x, query], c, split)
        assert (node[0], composed[0]) == (1, 8)
        for a, b in zip(node[1:], composed[1:]):
            assert np.array_equal(a, b)


class TestStaticMask:
    @pytest.mark.parametrize("mode", list(MessagePassingMode))
    def test_static_mask_is_built_once_and_read_only(self, monkeypatch, mode):
        built = []
        mode_masks = samb.model.mode_masks
        monkeypatch.setattr(samb.model, "mode_masks",
                            lambda *args: built.append(args) or mode_masks(*args))
        model = VitSamb(small_cfg(mode=mode), np.random.default_rng(27))
        assert len(built) == (0 if mode.dynamic else 1)   # with the model
        imgs = np.random.default_rng(28).random((2, 3, 16, 16))
        first, second = (model.forward(imgs).logits.data for _ in range(2))
        assert np.array_equal(first, second)
        if mode.dynamic:                 # one per block and forward
            assert len(built) == 2 * model.cfg.depth
        else:
            assert len(built) == 1
            with pytest.raises(ValueError, match="read-only"):
                model._static_mask[0, 0] = 0.0


class TestPrunedLastBlock:
    """The last block computes only the rows the head reads; the forward with
    every block on all rows is the reference."""

    @staticmethod
    def both(image_size, mode, n, train):
        cfg = small_cfg(image_size=image_size, mode=mode, num_group_tokens=n,
                        gumbel=GumbelConfig(noise_enabled=True))
        model = VitSamb(cfg, np.random.default_rng(23))
        imgs = np.random.default_rng(24).random((4, 3, image_size, image_size))
        return (forward_and_grads(VitSamb.forward, model, imgs, train),
                forward_and_grads(unpruned_forward, model, imgs, train))

    @pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("n", [1, 2, 4])
    @pytest.mark.parametrize("mode", list(MessagePassingMode))
    def test_bit_identical_at_desk_scale(self, mode, n, train):
        pruned, reference = self.both(16, mode, n, train)
        assert pruned.keys() == reference.keys()
        for key, value in reference.items():
            assert np.array_equal(pruned[key], value), key

    @pytest.mark.parametrize("mode", list(MessagePassingMode))
    def test_close_at_64px(self, mode):
        # at T = 260 OpenBLAS picks another kernel for the all-rows products
        # of the backward, so only the forward keeps its bits
        pruned, reference = self.both(64, mode, 4, True)
        for key, value in reference.items():
            if key.endswith(".bk"):          # exactly 0: softmax cancels it
                assert np.abs(pruned[key] - value).max() < 1e-15, key
            elif key.startswith(("logits", "feature", "fusion", "hard")):
                assert np.array_equal(pruned[key], value), key
            else:
                assert rel_err(pruned[key], value) < 1e-12, key


class TestLayerAssignment:
    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    @pytest.mark.parametrize("mode", [m for m in MessagePassingMode if m.dynamic])
    def test_logits_are_patch_queries_against_group_keys(self, monkeypatch, mode, n):
        # the other rows of q and k are NaN, so a logit that read one is NaN
        seen = []
        assign = samb.model.gumbel_assign
        monkeypatch.setattr(samb.model, "gumbel_assign",
                            lambda logits, *a, **kw: seen.append(logits.data)
                            or assign(logits, *a, **kw))
        model = VitSamb(small_cfg(mode=mode, num_group_tokens=n), np.random.default_rng(25))
        layout = model.cfg.layout
        q, k = np.random.default_rng(26).standard_normal((2, 4, layout.total, 16))
        qp = q[:, layout.patch_start:].copy()
        kg = k[:, layout.group_start:layout.patch_start].copy()
        q[:, :layout.patch_start] = np.nan
        k[:, :layout.group_start] = k[:, layout.patch_start:] = np.nan
        expected = np.matmul(qp, np.swapaxes(kg, -1, -2)) / np.sqrt(16)
        hard = model._layer_assignment(q, k, None)
        assert len(seen) == 1 and np.array_equal(seen[0], expected)
        assert np.array_equal(hard, np.argmax(expected, axis=-1))

    @pytest.mark.parametrize("block", [0, 1])
    def test_non_finite_logits_name_the_block(self, block):
        model = VitSamb(small_cfg(), np.random.default_rng(27))
        model.blocks[block]["attn"].bq.data[:] = np.inf
        imgs = np.random.default_rng(28).random((2, 3, 16, 16))
        with np.errstate(invalid="ignore"), pytest.raises(
                NumericError, match=f"^block {block}: gumbel_assign: non-finite"):
            model.forward(imgs, train=True, rng=np.random.default_rng(29))

    @pytest.mark.parametrize("mode", [m for m in MessagePassingMode if m.dynamic])
    def test_training_forward_needs_a_generator(self, monkeypatch, mode):
        # the forward decides before its first block, so no block runs
        calls = []
        attend = samb.model.masked_attention
        monkeypatch.setattr(samb.model, "masked_attention",
                            lambda *a: calls.append(a) or attend(*a))
        model = VitSamb(small_cfg(mode=mode, gumbel=GumbelConfig()),
                        np.random.default_rng(30))
        imgs = np.random.default_rng(31).random((2, 3, 16, 16))
        with pytest.raises(ContractError, match="caller's generator"):
            model.forward(imgs, train=True)
        with pytest.raises(ContractError, match="caller's generator"):
            model.forward(imgs, train=True, split=1)
        assert calls == []
        model.forward(imgs, train=False)             # an eval forward draws none
        assert len(calls) == model.cfg.depth

    @pytest.mark.parametrize("noise", [True, False], ids=["noise", "no-noise"])
    @pytest.mark.parametrize("mode", [m for m in MessagePassingMode if m.dynamic])
    def test_assignments_are_hard_index_arrays(self, mode, noise):
        model = VitSamb(small_cfg(mode=mode, num_group_tokens=4,
                                  gumbel=GumbelConfig(noise_enabled=noise)),
                        np.random.default_rng(37))
        imgs = np.random.default_rng(38).random((5, 3, 16, 16))
        rng = np.random.default_rng(39)
        single = model.forward(imgs, train=True, rng=rng)
        paired = model.forward(imgs, train=True, rng=rng, split=3)
        for out, b in ((single, 5), (paired[0], 3), (paired[1], 2)):
            assert len(out.assignments) == model.cfg.depth
            for hard in out.assignments:
                assert isinstance(hard, np.ndarray) and hard.shape == (b, 16)
                assert hard.dtype.kind == "i" and 0 <= hard.min() and hard.max() < 4

    @pytest.mark.parametrize("block", [0, 1])
    @pytest.mark.parametrize("mode", [MessagePassingMode.SAMB, MessagePassingMode.SAMB_D])
    def test_fully_masked_row_names_the_block(self, monkeypatch, mode, block):
        model = VitSamb(small_cfg(mode=mode), np.random.default_rng(32))
        calls = []

        def cut(mask):                   # the mask of block ``block`` cuts row 0
            mask = np.array(mask)
            if len(calls) == block:
                mask[..., 0, :] = -np.inf
            calls.append(mask)
            return mask

        if mode.dynamic:
            masks = samb.model.mode_masks
            monkeypatch.setattr(samb.model, "mode_masks", lambda *a: cut(masks(*a)))
        else:                            # one mask function in place of the shared mask
            static = mode_masks(mode, 2, 16)
            model._static_mask = lambda q, k: cut(static)
        imgs = np.random.default_rng(33).random((2, 3, 16, 16))
        with pytest.raises(DegenerateMaskError,
                           match=f"^block {block}: softmax: a row is fully masked"):
            model.forward(imgs)
        assert len(calls) == block + 1


class TestComplexity:
    def test_group_token_param_delta(self):
        d, n = 32, 4
        base = VitSamb(ModelConfig(embed_dim=d, num_group_tokens=n,
                                   mode=MessagePassingMode.VANILLA_CLS),
                       np.random.default_rng(15))
        samb = VitSamb(ModelConfig(embed_dim=d, num_group_tokens=n,
                                   mode=MessagePassingMode.SAMB),
                       np.random.default_rng(16))
        # vanilla trades the N*d group tokens + d fusion query for a d cls token
        delta = sum(p.size for p in samb.params()) - sum(p.size for p in base.params())
        assert delta == n * d + d - d

    @pytest.mark.parametrize("sizes", [
        {}, dict(image_size=32, patch_size=8, in_channels=1, embed_dim=12, heads=3,
                 depth=3, mlp_ratio=2, num_classes=7, num_group_tokens=3)])
    @pytest.mark.parametrize("mode", list(MessagePassingMode))
    def test_analytic_param_count(self, mode, sizes):
        cfg = ModelConfig(mode=mode, **sizes)
        model = VitSamb(cfg, np.random.default_rng(0))
        assert cfg.param_count == sum(p.size for p in model.params())

    def test_size_caps_hold_at_the_boundary(self, monkeypatch):
        cfg = small_cfg()
        params, scores = 8 * cfg.param_count, 8 * 2 * cfg.layout.total ** 2
        for name, nbytes, what in (("MAX_PARAM_BYTES", params, "the model parameters"),
                                   ("MAX_SCORE_BYTES", scores, "attention scores")):
            with monkeypatch.context() as m:
                m.setattr(samb.model, name, nbytes)
                small_cfg()
                m.setattr(samb.model, name, nbytes - 1)
                with pytest.raises(ConfigError, match=f"{what} would take {nbytes} bytes"):
                    small_cfg()

    def test_attention_scores_above_the_cap(self):
        # 64 x 64 patches of one pixel: T = 4098 and 2 heads need 256.2 MiB
        with pytest.raises(ConfigError, match="attention scores would take 268697664 bytes"):
            small_cfg(image_size=64, patch_size=1)

    @pytest.mark.parametrize("size,n", [(16, 1), (16, 2), (16, 4), (64, 4)])
    @pytest.mark.parametrize("mode", list(MessagePassingMode))
    def test_flops_vs_instrumented_counter(self, monkeypatch, mode, size, n):
        # at 64 px block 0's attention runs as three chunks on two lanes
        use_lanes(monkeypatch, 2)
        cfg = small_cfg(image_size=size, mode=mode, num_group_tokens=n)
        m = VitSamb(cfg, np.random.default_rng(17))
        imgs = np.random.default_rng(18).random((3, 3, size, size))
        T.start_flop_count()
        m.forward(imgs, train=False)
        measured = T.stop_flop_count()
        T.clear_tape()
        assert measured == m.flops_estimate(batch=3)


BLOCK0 = ["block0.ln1_g", "block0.ln1_b",
          "block0.attn.wq", "block0.attn.bq", "block0.attn.wk", "block0.attn.bk",
          "block0.attn.wv", "block0.attn.bv", "block0.attn.wo", "block0.attn.bo",
          "block0.ln2_g", "block0.ln2_b",
          "block0.mlp_w1", "block0.mlp_b1", "block0.mlp_w2", "block0.mlp_b2"]


class TestCheckpoint:
    @pytest.mark.parametrize("mode, names", [
        (MessagePassingMode.SAMB_D,
         ["patch_w", "patch_b", "pos_embed", "group_tokens", *BLOCK0,
          "ln_f_g", "ln_f_b", "fusion_query", "head_w", "head_b"]),
        (MessagePassingMode.G_L,
         ["patch_w", "patch_b", "pos_embed", "group_tokens", "cls_token", *BLOCK0,
          "ln_f_g", "ln_f_b", "fusion_query", "head_w", "head_b"]),
        (MessagePassingMode.VANILLA_CLS,
         ["patch_w", "patch_b", "pos_embed", "cls_token", *BLOCK0,
          "ln_f_g", "ln_f_b", "head_w", "head_b"])],
        ids=["samb-d", "g-l", "vanilla"])
    def test_record_names_in_order(self, mode, names):
        model = VitSamb(small_cfg(depth=1, mode=mode), np.random.default_rng(0))
        assert list(model.named_params()) == names
        assert model.params() == list(model.named_params().values())

    def test_save_load_round_trip(self, tmp_path):
        cfg = small_cfg()
        m1 = VitSamb(cfg, np.random.default_rng(19))
        path = tmp_path / "model.samb"
        m1.save(path)
        m2 = VitSamb(cfg, np.random.default_rng(20))
        m2.load(path)
        for k, v in m1.named_params().items():
            assert m2.named_params()[k].data.tobytes() == v.data.tobytes()
