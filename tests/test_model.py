import tracemalloc

import numpy as np
import pytest

import samb.model
import samb.tensor as T
from samb.attention import (AttentionWeights, GumbelConfig, MessagePassingMode, TokenLayout,
                            _score_chunks, masked_attention, mode_masks)
from samb.errors import ConfigError, ContractError, DegenerateMaskError, NumericError
from samb.model import ModelConfig, VitSamb, fusion_head, mlp_branch

from helpers import (closure_arrays, finite_diff_grad, rel_err, unfused_attention_branch,
                     unfused_embed, unfused_fusion_head, unfused_layer_norm, unfused_mlp,
                     unfused_mlp_branch, unfused_normalize, unpruned_forward, use_lanes)


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


def node_and_composition(build, params, c, split, backwards=1):
    """The output and every parameter gradient of ``sum(build() * c)``, after
    ``backwards`` backward passes, once per builder in ``build``, each
    recorded under ``T.batch_split(split)`` unless ``split`` is None."""
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
        loss = T.sum_all(out[0] * c)
        for _ in range(backwards):
            T.backward(loss)
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


def leaves(rng, *shapes):
    return [T.Tensor(rng.standard_normal(shape) * 0.3, requires_grad=True) for shape in shapes]


class TestBranchNodes:
    """A block is two nodes: the pre-norm attention branch
    (``masked_attention`` with ``prenorm``) and ``mlp_branch``.  Each has the
    output and every gradient of the composition it replaces, in every
    mode, inside and outside ``T.batch_split``, on all rows or the head
    rows, on one lane or two, at desk size and at 64 px (T = 260, where the
    attention scores run in chunks of one head and the MLP in pieces of whole
    sequences),
    and keeps only what its backward reads."""

    def attention_case(self, rng, mode, b, n, m, d):
        layout = TokenLayout(mode, n, m)
        mask = (mode_masks(mode, n, m, rng.integers(0, n, size=(b, m)))
                if mode.dynamic else mode_masks(mode, n, m))
        x, gamma, beta = leaves(rng, (b, layout.total, d), (d,), (d,))
        gamma.data += 1.0
        w = AttentionWeights(*leaves(rng, *[(d, d), (d,)] * 4))
        return layout, mask, x, gamma, beta, w

    def mlp_case(self, rng, b, t, d):
        x, gamma, beta, w1, b1, w2, b2 = leaves(rng, (b, t, d), (d,), (d,), (d, 4 * d),
                                                (4 * d,), (4 * d, d), (d,))
        gamma.data += 1.0
        return x, gamma, beta, w1, b1, w2, b2

    def assert_attention_branch_matches(self, rng, mode, split, rows, b, n, m, d, heads):
        layout, mask, x, gamma, beta, w = self.attention_case(rng, mode, b, n, m, d)
        rows = layout.head_rows if rows == "head" else slice(0, layout.total)
        tq = rows.stop - rows.start
        params = [x, gamma, beta, *w.named("attn").values()]
        c = T.Tensor(rng.standard_normal((b, tq, d)))
        node, composed = node_and_composition(
            [lambda: (masked_attention(x, w, heads, mask, rows, prenorm=(gamma, beta)),),
             lambda: (unfused_attention_branch(x, gamma, beta, w, heads, mask, rows),)],
            params, c, split)
        assert (node[0], composed[0]) == (1, 3 if tq == layout.total else 4)
        for got, want in zip(node[1:], composed[1:]):
            assert np.array_equal(got, want)
        return tq, layout.total

    def assert_mlp_branch_matches(self, rng, split, b, t, d):
        inputs = self.mlp_case(rng, b, t, d)
        c = T.Tensor(rng.standard_normal((b, t, d)))
        node, composed = node_and_composition(
            [lambda: (mlp_branch(*inputs),), lambda: (unfused_mlp_branch(*inputs),)],
            inputs, c, split)
        assert (node[0], composed[0]) == (1, 5)
        for got, want in zip(node[1:], composed[1:]):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("lanes", [1, 2])
    @pytest.mark.parametrize("rows", ["all", "head"])
    @pytest.mark.parametrize("split", [None, 1])
    @pytest.mark.parametrize("mode", list(MessagePassingMode))
    def test_attention_branch_matches_its_composition(self, monkeypatch, mode, split, rows,
                                                      lanes):
        use_lanes(monkeypatch, lanes)
        rng = np.random.default_rng(60)
        t = TokenLayout(mode, 3, 9).total
        # scores in chunks of one sequence, then of one head of a sequence
        for heads, per_chunk in ((2, 2), (3, 1)):
            monkeypatch.setattr(T, "_CHUNK_ELEMS", per_chunk * t * t)
            self.assert_attention_branch_matches(rng, mode, split, rows, 4, 3, 9, 12, heads)

    @pytest.mark.parametrize("lanes", [1, 2])
    @pytest.mark.parametrize("rows", ["all", "head"])
    @pytest.mark.parametrize("split", [None, 1])
    @pytest.mark.parametrize("mode", list(MessagePassingMode))
    def test_mlp_branch_matches_its_composition(self, monkeypatch, mode, split, rows, lanes):
        use_lanes(monkeypatch, lanes)
        monkeypatch.setattr(T, "_CHUNK_ELEMS", 64)      # the MLP runs a piece per sequence
        layout = TokenLayout(mode, 3, 9)
        tq = (layout.head_rows.stop - layout.head_rows.start if rows == "head"
              else layout.total)
        self.assert_mlp_branch_matches(np.random.default_rng(61), split, 4, tq, 12)

    @pytest.mark.parametrize("lanes", [1, 2])
    @pytest.mark.parametrize("rows", ["all", "head"])
    @pytest.mark.parametrize("split", [None, 4])
    def test_64px_branches_match_their_compositions(self, monkeypatch, split, rows, lanes):
        # the wide-train block: samb, N = 4, M = 256, d = 16, 2 heads, B = 8
        use_lanes(monkeypatch, lanes)
        rng = np.random.default_rng(62)
        tq, t = self.assert_attention_branch_matches(rng, MessagePassingMode.SAMB, split,
                                                     rows, 8, 4, 256, 16, 2)
        if rows == "all":
            assert _score_chunks(8, 2, tq, t)[0] == (slice(0, 1), slice(0, 1))
            assert len(T._sequence_pieces(np.empty((8, t, 64)))) == 3
        self.assert_mlp_branch_matches(rng, split, 8, tq, 16)

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_64px_nodes_match_after_a_repeated_backward(self, monkeypatch, lanes):
        # a paired 64 px step's block-0 shapes (B = 8 per domain): the MLP in
        # pieces of whole sequences, the attention scores in chunks of one
        # head; a second backward rebuilds xhat and the pre-activation again
        use_lanes(monkeypatch, lanes)
        rng = np.random.default_rng(69)
        b, d = 16, 16
        layout, mask, x, gamma, beta, w = self.attention_case(
            rng, MessagePassingMode.SAMB, b, 4, 256, d)
        mlp = self.mlp_case(rng, b, layout.total, d)
        assert len(T._sequence_pieces(np.empty((b, layout.total, 4 * d)))) == 6
        cases = [       # (builders, parameters, split); unfused_layer_norm sums all rows
            ([lambda: (masked_attention(x, w, 2, mask, prenorm=(gamma, beta)),),
              lambda: (unfused_attention_branch(x, gamma, beta, w, 2, mask),)],
             [x, gamma, beta, *w.named("attn").values()], 8),
            ([lambda: (mlp_branch(*mlp),), lambda: (unfused_mlp_branch(*mlp),)], mlp, 8),
            ([lambda: (T.layer_norm(*mlp[:3]),), lambda: (unfused_layer_norm(*mlp[:3]),)],
             mlp[:3], None),
        ]
        c = T.Tensor(rng.standard_normal((b, layout.total, d)))
        for build, params, split in cases:
            once, _ = node_and_composition(build, params, c, split)
            node, composed = node_and_composition(build, params, c, split, backwards=2)
            for got, want in zip(node[1:], composed[1:]):
                assert np.array_equal(got, want)
            for got, want in zip(once[2:], node[2:]):   # each backward adds the same
                assert np.array_equal(2 * got, want)

    @pytest.mark.parametrize("rows", ["all", "head"])
    def test_attention_branch_keeps_no_norm_or_branch_output(self, rows):
        rng = np.random.default_rng(63)
        mode, heads = MessagePassingMode.SAMB, 2
        layout, mask, x, gamma, beta, w = self.attention_case(rng, mode, 4, 3, 9, 12)
        rows = layout.head_rows if rows == "head" else slice(None)
        out = masked_attention(x, w, heads, mask, rows, prenorm=(gamma, beta))
        with T.no_grad():
            h = T.layer_norm(x, gamma, beta)
        plain = masked_attention(h, w, heads, mask, rows)
        node, plain_node = T.tape().nodes
        kept = closure_arrays(node.backward_fn)
        for a in kept:
            for forward in (unfused_normalize(x.data)[0], h.data, plain.data, out.data):
                assert not np.shares_memory(a, forward)
                assert a.shape != forward.shape or not np.array_equal(a, forward)
        # what attention alone keeps, and the layer norm's mu and inv
        b, t, d = x.shape
        assert sorted(a.shape for a in kept) == sorted(
            [a.shape for a in closure_arrays(plain_node.backward_fn)] + [(b, t, 1), (b, t, 1)])

    def test_mlp_branch_keeps_no_norm_branch_or_gelu_output(self):
        rng = np.random.default_rng(64)
        x, gamma, beta, w1, b1, w2, b2 = inputs = self.mlp_case(rng, 4, 7, 12)
        out = mlp_branch(*inputs)
        node, = T.tape().nodes
        with T.no_grad():
            h = T.layer_norm(x, gamma, beta)
            hidden = T.linear(h, w1, b1)
            gelu = T.gelu(hidden).data
            branch = unfused_mlp(h, w1, b1, w2, b2).data
        kept = closure_arrays(node.backward_fn)
        for a in kept:
            for forward in (unfused_normalize(x.data)[0], h.data, hidden.data, gelu, branch,
                            out.data):
                assert not np.shares_memory(a, forward)
                assert a.shape != forward.shape or not np.array_equal(a, forward)
        # mu, inv and the pre-activation's GELU cdf
        assert sorted(a.shape for a in kept) == [(4, 7, 1), (4, 7, 1), (4, 7, 48)]
        assert any(np.array_equal(a, T._gelu_cdf(hidden.data, np.empty(hidden.shape)))
                   for a in kept)

    @pytest.mark.parametrize("mode", [MessagePassingMode.SAMB, MessagePassingMode.SAMB_D,
                                      MessagePassingMode.G_L_D])
    def test_64px_block_nodes_keep_no_xhat_and_one_hidden_array(self, mode):
        # the paired 64 px forward (B = 8 per domain): per block, the two
        # branch nodes keep the layer norms' [B, T, 1] statistics and no
        # [B, T, d] xhat; of the [B, T, 4d] arrays, only the MLP's GELU cdf
        model = VitSamb(small_cfg(image_size=64, mode=mode, num_group_tokens=4,
                                  gumbel=GumbelConfig()), np.random.default_rng(70))
        imgs = np.random.default_rng(71).random((16, 3, 64, 64))
        model.forward(imgs, train=True, rng=np.random.default_rng(72), split=8)
        attention, mlp = ([node for node in T.tape().nodes
                           if node.backward_fn.__qualname__.startswith(f"{kind}.")]
                          for kind in ("masked_attention", "mlp_branch"))
        assert len(attention) == len(mlp) == model.cfg.depth
        d = model.cfg.embed_dim
        for branches in zip(attention, mlp):
            x = branches[1].inputs[0]                # [B, rows, d]: the attention output
            xhats = [unfused_normalize(node.inputs[0].data)[0] for node in branches]
            kept = [closure_arrays(node.backward_fn) for node in branches]
            for a in kept[0] + kept[1]:
                assert not any(a.shape == xhat.shape and np.array_equal(a, xhat)
                               for xhat in xhats)
            # the attention node's one [B, rows, d] array is its merged output
            assert [sum(a.shape == x.shape for a in arrays) for arrays in kept] == [1, 0]
            [cdf] = [a for a in kept[0] + kept[1] if a.shape == x.shape[:2] + (4 * d,)]
            with T.no_grad():
                a = T.linear(T.layer_norm(x, *branches[1].inputs[1:3]),
                             *branches[1].inputs[3:5]).data
            assert np.array_equal(cdf, T._gelu_cdf(a, np.empty_like(a)))

    @pytest.mark.parametrize("mode", [m for m in MessagePassingMode if m.dynamic])
    def test_64px_dynamic_nodes_keep_no_full_mask(self, mode):
        # the paired 64 px forward (B = 8 per domain): the attention nodes
        # keep the [B, M, N] owner bands, no [B, T, T] mask
        model = VitSamb(small_cfg(image_size=64, mode=mode, num_group_tokens=4,
                                  gumbel=GumbelConfig()), np.random.default_rng(64))
        imgs = np.random.default_rng(65).random((16, 3, 64, 64))
        model.forward(imgs, train=True, rng=np.random.default_rng(66), split=8)
        b, t = 16, model.cfg.layout.total
        for node in T.tape().nodes:
            arrays = closure_arrays(node.backward_fn)
            assert all(a.size < b * t * t for a in arrays)
        kept = {a.shape for node in T.tape().nodes for a in closure_arrays(node.backward_fn)}
        assert (b, 256, 4) in kept or (b, 1, 256, 4) in kept or (b, 1, 4, 256) in kept

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_mlp_branch_forward_allocates_less_than_one_hidden_array_beyond_the_cdf(
            self, monkeypatch, lanes):
        # at the 64 px block-0 shape the pre-activation and the GELU output
        # exist only a piece per lane at a time
        use_lanes(monkeypatch, lanes)
        b, t, d = 16, 260, 16
        inputs = self.mlp_case(np.random.default_rng(67), b, t, d)
        hidden = 8 * b * t * 4 * d
        mlp_branch(*inputs)                      # the helper lane exists
        T.clear_tape()
        tracemalloc.start()
        try:
            mlp_branch(*inputs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert hidden < peak < 2 * hidden        # the cdf, and less than one more

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_mlp_branch_backward_allocates_one_hidden_array(self, monkeypatch, lanes):
        # at the 64 px block-0 shape, besides the pre-activation's gradient
        # (which first holds the recomputed pre-activation) the backward
        # allocates less than one more [B, T, 4d] array: the GELU output and
        # its derivative are recomputed in pieces, in place
        use_lanes(monkeypatch, lanes)
        b, t, d = 16, 260, 16
        inputs = self.mlp_case(np.random.default_rng(67), b, t, d)
        mlp_branch(*inputs)
        node, = T.tape().nodes
        g = np.random.default_rng(68).standard_normal((b, t, d))
        hidden = 8 * b * t * 4 * d
        tracemalloc.start()
        try:
            grads = node.backward_fn(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert hidden < peak < 2 * hidden
        assert [a.shape for a in grads] == [(b, t, d), (d,), (d,), (d, 4 * d), (4 * d,),
                                             (4 * d, d), (d,)]


class TestStaticMask:
    @pytest.mark.parametrize("mode", list(MessagePassingMode))
    def test_static_mask_is_built_once_and_read_only(self, monkeypatch, mode):
        # every mode builds its mask once, with the model; a forward reads
        # bands of it (a dynamic mode adds the owner bands of its assignment)
        built = []
        mode_masks = samb.model.mode_masks
        monkeypatch.setattr(samb.model, "mode_masks",
                            lambda *args: built.append(args) or mode_masks(*args))
        model = VitSamb(small_cfg(mode=mode), np.random.default_rng(27))
        assert len(built) == 1
        imgs = np.random.default_rng(28).random((2, 3, 16, 16))
        first, second = (model.forward(imgs).logits.data for _ in range(2))
        assert np.array_equal(first, second)
        assert len(built) == 1
        with pytest.raises(ValueError, match="read-only"):
            model._mask[0, 0] = 0.0
        for _, _, values in model._bands or []:
            with pytest.raises(ValueError, match="read-only"):
                values[...] = 0.0


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

    def test_noise_free_config_is_built_with_the_model(self, monkeypatch):
        # not once per block and forward: the model keeps one
        built = []
        replace = samb.model.replace
        monkeypatch.setattr(samb.model, "replace",
                            lambda *a, **kw: built.append(kw) or replace(*a, **kw))
        model = VitSamb(small_cfg(gumbel=GumbelConfig()), np.random.default_rng(24))
        assert built == [{"noise_enabled": False}]
        imgs = np.random.default_rng(25).random((2, 3, 16, 16))
        for _ in range(2):
            model.forward(imgs)
        assert len(built) == 1 and model._gumbel_eval.noise_enabled is False

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
                            lambda *a, **kw: calls.append(a) or attend(*a, **kw))
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
        t = model.cfg.layout.total
        calls = []

        def cut(bands):                  # the bands of block ``block`` cut row 0
            if len(calls) == block:
                bands = bands + [(slice(0, 1), slice(None), np.full((1, t), -np.inf))]
            calls.append(bands)
            return bands

        if mode.dynamic:                 # through mask_bands
            build = samb.model.mask_bands
            monkeypatch.setattr(samb.model, "mask_bands", lambda *a: cut(build(*a)))
        else:                            # one band function in place of the shared bands
            static = model._bands
            model._bands = lambda q, k: cut(static)
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
