import inspect
import re
import threading

import numpy as np
import pytest

import samb.tensor as T
import samb.attention
from samb.attention import (AttentionWeights, GumbelConfig, MessagePassingMode,
                            TokenLayout, _attend, _score_chunks, contiguous_regions,
                            gumbel_assign, handcrafted_mask, masked_attention, mode_masks)
from samb.errors import (ConfigError, ContractError, DegenerateMaskError,
                         DimensionError, NumericError)
from samb.tensor import Tensor

from helpers import (check_grad, closure_arrays, dense_attention_oracle, finite_diff_grad,
                     unfused_attention, unfused_masked_attention, use_lanes)

NEG = -np.inf


@pytest.fixture(autouse=True)
def fresh_tape():
    T.clear_tape()
    yield
    T.clear_tape()


def random_weights(rng, d):
    def p(shape):
        return Tensor(rng.standard_normal(shape) * 0.3, requires_grad=True)
    return AttentionWeights(wq=p((d, d)), bq=p(d), wk=p((d, d)), bk=p(d),
                            wv=p((d, d)), bv=p(d), wo=p((d, d)), bo=p(d))


class TestHandcraftedMask:
    def test_two_groups_four_tokens(self):
        pair = handcrafted_mask(2, 4)
        expected = np.array([[0, NEG], [0, NEG], [NEG, 0], [NEG, 0]])
        assert np.array_equal(pair.broadcast_mask, expected)
        assert np.array_equal(pair.group_mask, np.array([[0.0, NEG], [NEG, 0.0]]))

    def test_single_group(self):
        pair = handcrafted_mask(1, 3)
        assert np.array_equal(pair.broadcast_mask, np.zeros((3, 1)))
        assert np.array_equal(pair.group_mask, np.zeros((1, 1)))

    def test_remainder_goes_to_last_region(self):
        pair = handcrafted_mask(3, 7)
        owners = contiguous_regions(3, 7)
        assert owners.tolist() == [0, 0, 1, 1, 2, 2, 2]
        for i in range(7):
            row = pair.broadcast_mask[i]
            assert (row == 0).sum() == 1
            assert row[owners[i]] == 0

    def test_more_groups_than_tokens(self):
        with pytest.raises(ConfigError):
            handcrafted_mask(5, 4)

    def test_random_configs_rows_one_hot(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            m = int(rng.integers(1, 40))
            n = int(rng.integers(1, m + 1))
            pair = handcrafted_mask(n, m)
            finite = np.isfinite(pair.broadcast_mask)
            assert np.array_equal(finite.sum(axis=1), np.ones(m))
            assert np.all(pair.broadcast_mask[finite] == 0)
            assert np.array_equal(np.isfinite(pair.group_mask), np.eye(n, dtype=bool))


class TestGumbelAssign:
    def test_forced_argmax_no_noise(self):
        cfg = GumbelConfig(noise_enabled=False)
        logits = Tensor(np.array([[10.0, 0.0, 0.0]]))
        a = gumbel_assign(logits, cfg)
        assert a.hard.tolist() == [0]
        assert a.one_hot_st.data.tolist() == [[1.0, 0.0, 0.0]]

    def test_tie_breaks_to_lowest_index(self):
        cfg = GumbelConfig(temperature=1.0, noise_enabled=False)
        a = gumbel_assign(Tensor(np.zeros((1, 2))), cfg)
        assert np.allclose(a.soft.data, [[0.5, 0.5]])
        assert a.hard.tolist() == [0]

    def test_nonfinite_logits(self):
        with pytest.raises(NumericError):
            gumbel_assign(Tensor(np.array([[np.nan, 0.0]])),
                          GumbelConfig(noise_enabled=False))

    def test_straight_through_gradient_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            logits_data = rng.standard_normal((5, 3))
            c = rng.standard_normal((5, 3))
            cfg = GumbelConfig(temperature=float(rng.uniform(0.3, 2.0)),
                               noise_enabled=False)

            T.clear_tape()
            x1 = Tensor(logits_data.copy(), requires_grad=True)
            a = gumbel_assign(x1, cfg)
            T.backward(T.sum_all(a.one_hot_st * Tensor(c)))
            hard_grad = x1.grad.copy()

            T.clear_tape()
            x2 = Tensor(logits_data.copy(), requires_grad=True)
            a2 = gumbel_assign(x2, cfg)
            T.backward(T.sum_all(a2.soft * Tensor(c)))
            assert np.abs(hard_grad - x2.grad).max() < 1e-12

    def test_noise_needs_the_callers_generator(self):
        with pytest.raises(ContractError, match="caller's generator"):
            gumbel_assign(Tensor(np.zeros((3, 2))), GumbelConfig())

    def test_forward_is_one_hot_with_noise(self):
        rng = np.random.default_rng(2)
        a = gumbel_assign(Tensor(rng.standard_normal((8, 4))),
                          GumbelConfig(), rng=np.random.default_rng(3))
        assert np.array_equal(a.one_hot_st.data.sum(axis=1), np.ones(8))
        assert set(np.unique(a.one_hot_st.data)) <= {0.0, 1.0}
        # hard index agrees with the perturbed argmax encoded in one_hot_st
        assert np.array_equal(np.argmax(a.one_hot_st.data, axis=1), a.hard)

    def test_gumbel_argmax_statistics(self):
        # P(argmax = 0) for logits [ln 2, 0] is exactly 2/3
        rng = np.random.default_rng(42)
        a = gumbel_assign(Tensor(np.broadcast_to([np.log(2.0), 0.0],
                                                 (100_000, 2)).copy()),
                          GumbelConfig(temperature=1.0), rng=rng)
        freq = float((a.hard == 0).mean())
        assert 0.66 <= freq <= 0.674


def run_mode(mode, n, m, rng, d=8, heads=2, batch=2):
    if mode.dynamic:
        hard = rng.integers(0, n, size=(batch, m))
        mask = mode_masks(mode, n, m, hard)
    else:
        mask = mode_masks(mode, n, m)
    t = TokenLayout(mode, n, m).total
    x = Tensor(rng.standard_normal((batch, t, d)))
    w = random_weights(rng, d)
    out = masked_attention(x, w, heads, mask)
    oracle = dense_attention_oracle(x.data, w, heads, mask)
    return out, oracle, mask, x, w


class TestMaskedAttention:
    def test_all_zero_mask_matches_dense(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((1, 3, 8)))
        w = random_weights(rng, 8)
        out = masked_attention(x, w, 2, np.zeros((3, 3)))
        oracle = dense_attention_oracle(x.data, w, 2, np.zeros((3, 3)))
        assert np.abs(out.data - oracle).max() < 1e-10

    @pytest.mark.parametrize("mode", list(MessagePassingMode))
    def test_dense_oracle_equivalence_all_modes(self, mode):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = int(rng.integers(4, 12))
            n = int(rng.integers(1, min(m, 5) + 1))
            out, oracle, _, _, _ = run_mode(mode, n, m, rng)
            assert np.abs(out.data - oracle).max() < 1e-10

    def test_samb_message_scale(self):
        # every token's attention row has exactly M+1 strictly positive entries
        rng = np.random.default_rng(6)
        for mode in (MessagePassingMode.SAMB, MessagePassingMode.SAMB_D):
            for _ in range(25):
                m = int(rng.integers(4, 12))
                n = int(rng.integers(2, min(m, 5) + 1))
                counts = attention_support_counts(mode, n, m, rng)
                assert np.all(counts == m + 1)

    def test_probability_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        mask = mode_masks(MessagePassingMode.SAMB, 2, 4)
        # the blockwise mask must leave each row normalizable
        scores = rng.standard_normal((6, 6)) + mask
        probs = T.softmax(Tensor(scores), axis=-1).data
        assert np.abs(probs.sum(axis=-1) - 1.0).max() < 1e-12
        # a fully masked row cannot be normalized
        mask[2] = NEG
        x = Tensor(rng.standard_normal((1, 6, 8)))
        with pytest.raises(DegenerateMaskError):
            masked_attention(x, random_weights(rng, 8), 2, mask)

    def test_gradient_through_masked_attention(self):
        rng = np.random.default_rng(8)
        mask = mode_masks(MessagePassingMode.SAMB, 2, 4)
        x = Tensor(rng.standard_normal((1, 6, 8)), requires_grad=True)
        w = random_weights(rng, 8)
        c = Tensor(rng.standard_normal((1, 6, 8)))

        def loss():
            return T.sum_all(masked_attention(x, w, 2, mask) * c)

        for param in (w.wq, w.wk, w.wv, w.wo, x):
            assert check_grad(loss, param, step=1e-5) < 1e-5
        # bk adds q.bk to a whole score row, which softmax cancels, so its
        # gradient is zero and a relative error would compare noise
        T.clear_tape()
        w.bk.zero_grad()
        T.backward(loss())
        assert np.abs(w.bk.grad).max() < 1e-12

        def f(_):
            T.clear_tape()
            return loss().item()

        assert np.abs(finite_diff_grad(f, w.bk.data)).max() < 1e-8

    @pytest.mark.parametrize("mode", list(MessagePassingMode))
    def test_fused_matches_unfused_bit_for_bit(self, mode):
        rng = np.random.default_rng(13)
        for heads in (1, 2, 4):
            m = int(rng.integers(4, 12))
            n = int(rng.integers(1, min(m, 5) + 1))
            mask = (mode_masks(mode, n, m, rng.integers(0, n, size=(3, m)))
                    if mode.dynamic else mode_masks(mode, n, m))
            t = TokenLayout(mode, n, m).total
            x = Tensor(rng.standard_normal((3, t, 8)), requires_grad=True)
            w = random_weights(rng, 8)
            c = Tensor(rng.standard_normal((3, t, 8)))
            params = [x] + list(w.named("attn").values())
            results = []
            for attend in (masked_attention, unfused_attention):
                T.clear_tape()
                for p in params:
                    p.zero_grad()
                out = attend(x, w, heads, mask)
                T.backward(T.sum_all(out * c))
                results.append([out.data] + [p.grad for p in params])
            for fused, unfused in zip(*results):
                assert np.array_equal(fused, unfused)

    @pytest.mark.parametrize("mode", list(MessagePassingMode))
    def test_rows_match_unfused_rows_bit_for_bit(self, mode):
        rng = np.random.default_rng(18)
        for heads in (1, 2, 4):
            m = int(rng.integers(4, 12))
            n = int(rng.integers(1, min(m, 5) + 1))
            layout = TokenLayout(mode, n, m)
            t = layout.total
            mask = (mode_masks(mode, n, m, rng.integers(0, n, size=(3, m)))
                    if mode.dynamic else mode_masks(mode, n, m))
            x = Tensor(rng.standard_normal((3, t, 8)), requires_grad=True)
            w = random_weights(rng, 8)
            # at least two rows: numpy multiplies a single row through gemv,
            # which rounds differently from the all-rows gemm
            start = int(rng.integers(0, t - 1))
            for rows in (layout.head_rows, slice(start, int(rng.integers(start + 2, t + 1)))):
                assert_rows_match_unfused(x, w, heads, mask, rows, rng)

    def test_rows_must_be_contiguous_and_nonempty(self):
        rng = np.random.default_rng(19)
        x = Tensor(rng.standard_normal((1, 6, 8)))
        w = random_weights(rng, 8)
        for rows in (slice(0, 6, 2), slice(3, 3)):
            with pytest.raises(ContractError):
                masked_attention(x, w, 2, np.zeros((6, 6)), rows)

    @pytest.mark.parametrize("rows", [slice(None), slice(2, 5)])
    def test_mask_function_reads_the_node_projections(self, rows):
        rng = np.random.default_rng(21)
        mask = mode_masks(MessagePassingMode.SAMB_D, 2, 6, rng.integers(0, 2, size=(2, 6)))
        x = Tensor(rng.standard_normal((2, 8, 8)), requires_grad=True)
        w = random_weights(rng, 8)
        params = [x] + list(w.named("attn").values())
        calls = []

        def mask_fn(q, k):
            calls.append((q.copy(), k.copy()))
            return mask

        results = []
        for m in (mask_fn, mask):
            T.clear_tape()
            for p in params:
                p.zero_grad()
            out = masked_attention(x, w, 2, m, rows)
            T.backward(T.sum_all(out))
            results.append([out.data] + [p.grad for p in params])
        (q, k), = calls
        # every row of q and k, with the bits of the linear projections
        assert np.array_equal(q, T.linear(x, w.wq, w.bq).data)
        assert np.array_equal(k, T.linear(x, w.wk, w.bk).data)
        for with_fn, with_array in zip(*results):
            assert np.array_equal(with_fn, with_array)

    @pytest.mark.parametrize("shape", [(7, 7), (3, 8, 8), (2, 1, 8, 8)],
                             ids=["wrong-T", "wrong-B", "rank-4"])
    def test_mask_of_another_shape_is_rejected(self, shape):
        rng = np.random.default_rng(22)
        x = Tensor(rng.standard_normal((2, 8, 8)))
        with pytest.raises(DimensionError, match=rf"{re.escape(str(shape))}.*\(2, 8, 8\)"):
            masked_attention(x, random_weights(rng, 8), 2, np.zeros(shape))

    def test_repeated_backward_doubles_every_gradient(self):
        # a backward that overwrote an array its node saved would make the
        # second pass differ from the first
        rng = np.random.default_rng(14)
        mask = mode_masks(MessagePassingMode.SAMB_D, 2, 6, rng.integers(0, 2, size=(2, 6)))
        x = Tensor(rng.standard_normal((2, 8, 8)), requires_grad=True)
        w = random_weights(rng, 8)
        params = [x] + list(w.named("attn").values())
        # through a node, x gets its three projections' gradients as one sum
        loss = T.sum_all(masked_attention(x * 1.0, w, 2, mask)
                         * Tensor(rng.standard_normal((2, 8, 8))))
        T.backward(loss)
        once = [p.grad.copy() for p in params]
        T.backward(loss)
        for p, g in zip(params, once):
            assert np.array_equal(p.grad, 2.0 * g)


class TestChunkedAttention:
    """The scores are walked in chunks; shrinking ``T._CHUNK_ELEMS`` makes a
    B=4 batch run as several chunks (``TestAttentionNode`` checks the bits
    of every chunking)."""

    B, N, M, D = 4, 3, 9, 8

    def setup(self, monkeypatch, rng, mode, heads):
        """A case whose scores run as one chunk per sequence."""
        n, m = self.N, self.M
        mask = (mode_masks(mode, n, m, rng.integers(0, n, size=(self.B, m)))
                if mode.dynamic else mode_masks(mode, n, m))
        t = TokenLayout(mode, n, m).total
        monkeypatch.setattr(T, "_CHUNK_ELEMS", heads * t * t)
        x = Tensor(rng.standard_normal((self.B, t, self.D)), requires_grad=True)
        w = random_weights(rng, self.D)
        c = Tensor(rng.standard_normal((self.B, t, self.D)))
        return mask, x, w, c

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_repeated_backward_doubles_every_gradient(self, monkeypatch, lanes):
        # the first backward leaves other chunks' probabilities in the
        # buffers, so the second must recompute instead of reusing them
        use_lanes(monkeypatch, lanes)
        rng = np.random.default_rng(16)
        mask, x, w, c = self.setup(monkeypatch, rng, MessagePassingMode.SAMB_D, 2)
        params = [x] + list(w.named("attn").values())
        loss = T.sum_all(masked_attention(x * 1.0, w, 2, mask) * c)
        T.backward(loss)
        once = [p.grad.copy() for p in params]
        T.backward(loss)
        for p, g in zip(params, once):
            assert np.array_equal(p.grad, 2.0 * g)

    @pytest.mark.parametrize("mode", [MessagePassingMode.SAMB, MessagePassingMode.SAMB_D])
    def test_node_keeps_no_full_score_array(self, monkeypatch, mode):
        rng = np.random.default_rng(17)
        heads = 2
        mask, x, w, _ = self.setup(monkeypatch, rng, mode, heads)
        masked_attention(x, w, heads, mask)
        node, = T.tape().nodes
        t = x.shape[1]
        full = self.B * heads * t * t
        arrays = closure_arrays(node.backward_fn)
        assert any(a.shape == (1, heads, t, t) for a in arrays)   # the chunk buffer
        assert all(a.size < full for a in arrays)

    @pytest.mark.parametrize("rows", ["all", "head"])
    def test_node_keeps_each_projection_once(self, monkeypatch, rows):
        # the head splits of q, k and v and the merged output: no [B, T, d]
        # projection is also kept as it came out of its product
        rng = np.random.default_rng(31)
        mode = MessagePassingMode.SAMB
        mask, x, w, _ = self.setup(monkeypatch, rng, mode, 2)
        rows = TokenLayout(mode, self.N, self.M).head_rows if rows == "head" else slice(None)
        masked_attention(x, w, 2, mask, rows)
        node, = T.tape().nodes
        b, t, d = x.shape
        tq = len(range(*rows.indices(t)))
        kept = sorted(a.shape for a in closure_arrays(node.backward_fn)
                      if a.size in (b * t * d, b * tq * d) and a is not x.data)
        assert kept == sorted([(b, 2, tq, d // 2), (b, 2, d // 2, t), (b, 2, t, d // 2),
                               (b, tq, d)])


class TestAttentionNode:
    """One ``masked_attention`` call is one tape node.  Its output and every
    gradient are those of the nodes it replaces
    (``unfused_masked_attention``) and of the primitive-op composition
    (``unfused_attention``, narrowed to the rows), in every mode, inside and
    outside ``T.batch_split``, on all rows or the head rows, on one lane or
    two, and with the scores in one chunk, in chunks of 3 and 1 sequences,
    of one sequence, or of some heads of one sequence."""

    B, N, M, D = 4, 3, 9, 12

    def case(self, rng, mode):
        mask = (mode_masks(mode, self.N, self.M, rng.integers(0, self.N, size=(self.B, self.M)))
                if mode.dynamic else mode_masks(mode, self.N, self.M))
        t = TokenLayout(mode, self.N, self.M).total
        x = Tensor(rng.standard_normal((self.B, t, self.D)), requires_grad=True)
        return mask, x, random_weights(rng, self.D)

    @pytest.mark.parametrize("chunks", ["whole", "uneven", "sequence", "heads"])
    @pytest.mark.parametrize("lanes", [1, 2])
    @pytest.mark.parametrize("rows", ["all", "head"])
    @pytest.mark.parametrize("split", [None, 1])
    @pytest.mark.parametrize("mode", list(MessagePassingMode))
    def test_matches_its_compositions_bit_for_bit(self, monkeypatch, mode, split, rows,
                                                  lanes, chunks):
        rng = np.random.default_rng(32)
        use_lanes(monkeypatch, lanes)
        layout = TokenLayout(mode, self.N, self.M)
        rows = layout.head_rows if rows == "head" else slice(0, layout.total)
        tq = rows.stop - rows.start
        for heads in (1, 2, 3, 4):
            mask, x, w = self.case(rng, mode)
            t = x.shape[1]
            per_chunk = {"whole": self.B * heads, "uneven": 3 * heads, "sequence": heads,
                         "heads": heads - 1}
            monkeypatch.setattr(T, "_CHUNK_ELEMS", per_chunk[chunks] * tq * t)
            c = Tensor(rng.standard_normal((self.B, tq, self.D)))
            params = [x] + list(w.named("attn").values())
            results = []
            for attend in (lambda: masked_attention(x, w, heads, mask, rows),
                           lambda: unfused_masked_attention(x, w, heads, mask, rows),
                           lambda: T.narrow(unfused_attention(x, w, heads, mask), 1,
                                            rows.start, tq)):
                T.clear_tape()
                for p in params:
                    p.zero_grad()
                if split is None:
                    out = attend()
                else:
                    with T.batch_split(split):
                        out = attend()
                T.backward(T.sum_all(out * c))
                results.append([out.data] + [p.grad for p in params])
            assert len(_score_chunks(self.B, heads, tq, t)) == {
                "whole": 1, "uneven": 2, "sequence": self.B,
                "heads": self.B * -(-heads // max(1, heads - 1))}[chunks]
            for node, *compositions in zip(*results):
                for composed in compositions:
                    assert np.array_equal(node, composed)

    @pytest.mark.parametrize("rows", [slice(None), slice(0, 3)])
    @pytest.mark.parametrize("mode", list(MessagePassingMode))
    def test_one_call_appends_one_node(self, mode, rows):
        rng = np.random.default_rng(33)
        mask, x, w = self.case(rng, mode)
        for m in (mask, lambda q, k: mask):
            T.clear_tape()
            out = masked_attention(x, w, 2, m, rows)
            node, = T.tape().nodes
            assert node.output is out
            assert node.inputs == (x, w.wq, w.bq, w.wk, w.bk, w.wv, w.bv, w.wo, w.bo)

    def test_head_chunks_read_the_callers_mask(self, monkeypatch):
        # below one sequence per chunk, each chunk reads its sequence's rows
        # of the [B, T, T] mask the mask function returned, as a view
        rng = np.random.default_rng(34)
        use_lanes(monkeypatch, 1)                   # reads in chunk order
        mask, x, w = self.case(rng, MessagePassingMode.SAMB_D)
        t = x.shape[1]
        monkeypatch.setattr(T, "_CHUNK_ELEMS", t * t)
        reads = []

        class RecordingMask(np.ndarray):
            def __getitem__(self, key):
                view = np.asarray(self)[key]
                reads.append(view)
                return view

        kernel = samb.attention._attend
        monkeypatch.setattr(samb.attention, "_attend",
                            lambda q, k, v, h, m: kernel(q, k, v, h, m.view(RecordingMask)))
        masked_attention(x, w, 4, lambda q, k: mask)
        assert len(reads) == self.B * 4             # a chunk per (sequence, head)
        for i, view in enumerate(reads):
            assert view.shape == (1, 1, t, t)
            assert np.shares_memory(view, mask)
            assert np.array_equal(view[0, 0], mask[i // 4])


class TestScoreChunks:
    @pytest.mark.parametrize("b, heads, tq, tk", [(4, 2, 12, 12), (3, 4, 5, 20), (1, 3, 7, 7),
                                                  (8, 2, 260, 260), (16, 2, 4, 20)])
    @pytest.mark.parametrize("elems", [1, 49, 100, 2 * 144, 1 << 17])
    def test_every_score_block_once_within_the_budget(self, monkeypatch, b, heads, tq, tk,
                                                      elems):
        monkeypatch.setattr(T, "_CHUNK_ELEMS", elems)
        chunks = _score_chunks(b, heads, tq, tk)
        covered = np.zeros((b, heads), dtype=int)
        for seqs, hs in chunks:
            covered[seqs, hs] += 1
            size = (seqs.stop - seqs.start) * (hs.stop - hs.start) * tq * tk
            assert size <= elems or (hs.stop - hs.start == 1 and seqs.stop - seqs.start == 1)
            # whole sequences, or heads of one sequence
            assert hs == slice(0, heads) or seqs.stop - seqs.start == 1
        assert np.all(covered == 1)
        assert chunks[0] == max(chunks, key=lambda c: (c[0].stop - c[0].start)
                                * (c[1].stop - c[1].start))
        whole = heads * tq * tk <= elems
        assert all(hs == slice(0, heads) for _, hs in chunks) == (whole or heads == 1)

    def test_64px_block_splits_heads(self):
        # T = 260 and 2 heads: one sequence's scores exceed a chunk, one head's fit
        assert _score_chunks(8, 2, 260, 260)[:3] == [
            (slice(0, 1), slice(0, 1)), (slice(0, 1), slice(1, 2)), (slice(1, 2), slice(0, 1))]


class TestLanes:
    """``T.run_lanes`` shares the chunks, and the halves of a large GELU,
    between the calling thread and one helper thread that runs numpy only.
    Here a B=4 batch of T=12 runs as four chunks on two lanes."""

    B, T, D, HEADS = 4, 12, 8, 2

    def case(self, monkeypatch, rng):
        use_lanes(monkeypatch, 2)
        monkeypatch.setattr(T, "_CHUNK_ELEMS", self.HEADS * self.T * self.T)
        x = Tensor(rng.standard_normal((self.B, self.T, self.D)), requires_grad=True)
        return x, random_weights(rng, self.D), np.zeros((self.B, self.T, self.T))

    @staticmethod
    def spy_lanes(monkeypatch):
        """Thread idents of every item run, and of every exception raised
        in one, keyed by lane."""
        seen = {0: set(), 1: set(), "raised": []}
        inner = T.run_lanes

        def spy(fn, n, reverse=False):
            def item(lane, i):
                seen[lane].add(threading.get_ident())
                try:
                    fn(lane, i)
                except Exception as e:
                    seen["raised"].append((lane, threading.get_ident(), type(e)))
                    raise
            inner(item, n, reverse)

        monkeypatch.setattr(T, "run_lanes", spy)
        return seen

    def test_tape_ops_and_flop_count_stay_on_the_calling_thread(self, monkeypatch):
        rng = np.random.default_rng(24)
        x, w, mask = self.case(monkeypatch, rng)
        calls = []

        def record(name, fn):
            def wrapped(*args, **kwargs):
                calls.append((name, threading.get_ident()))
                return fn(*args, **kwargs)
            return wrapped

        for name, fn in list(vars(T).items()):
            if (inspect.isfunction(fn) and fn.__module__ == T.__name__
                    and not name.startswith("_") and name != "run_lanes"):
                monkeypatch.setattr(T, name, record(name, fn))
        lanes = self.spy_lanes(monkeypatch)
        h = Tensor(rng.standard_normal((self.B, self.T, self.D)), requires_grad=True)
        w1 = Tensor(rng.standard_normal((self.D, 4 * self.D)), requires_grad=True)
        b1 = Tensor(rng.standard_normal(4 * self.D), requires_grad=True)
        w2 = Tensor(rng.standard_normal((4 * self.D, self.D)), requires_grad=True)
        b2 = Tensor(rng.standard_normal(self.D), requires_grad=True)
        T.start_flop_count()
        out = masked_attention(x, w, self.HEADS, mask) + T.mlp(h, w1, b1, w2, b2)
        T.stop_flop_count()
        T.backward(T.sum_all(out))
        me = threading.get_ident()
        names = {name for name, _ in calls}
        assert {"counted_matmul", "count_matmul_flops", "custom_op", "mlp",
                "backward"} <= names
        assert {ident for _, ident in calls} == {me}
        assert lanes[0] == {me} and len(lanes[1]) == 1 and me not in lanes[1]

    def test_error_in_the_helper_lane_reaches_the_caller(self, monkeypatch):
        rng = np.random.default_rng(25)
        x, w, mask = self.case(monkeypatch, rng)
        lanes = self.spy_lanes(monkeypatch)
        bad = mask.copy()
        bad[1, 3] = NEG                          # chunk 1 is lane 1's
        with pytest.raises(DegenerateMaskError, match="fully masked"):
            masked_attention(x, w, self.HEADS, bad)
        assert [(lane, e) for lane, _, e in lanes["raised"]] == [(1, DegenerateMaskError)]
        assert lanes["raised"][0][1] != threading.get_ident()
        T.clear_tape()
        two = masked_attention(x, w, self.HEADS, mask).data
        use_lanes(monkeypatch, 1)
        assert np.array_equal(two, masked_attention(x, w, self.HEADS, mask).data)

    def test_backward_starts_each_lane_on_the_chunk_it_holds(self, monkeypatch):
        # eight chunks on two lanes: the forward leaves chunks 6 and 7 in the
        # lanes' buffers, and the reversed backward starts each lane there,
        # so it recomputes the other six; each computation reads its mask once
        use_lanes(monkeypatch, 2)
        monkeypatch.setattr(T, "_CHUNK_ELEMS", self.HEADS * self.T * self.T)
        rng = np.random.default_rng(28)
        q, k, v = (rng.standard_normal((8, self.T, self.D)) for _ in range(3))
        reads = []

        class CountingMask(np.ndarray):
            def __getitem__(self, key):
                reads.append(key)
                return np.asarray(self)[key]

        out, backward = _attend(q, k, v, self.HEADS,
                                np.zeros((8, 1, self.T, self.T)).view(CountingMask))
        assert len(reads) == 8
        reads.clear()
        backward(np.ones(out.shape))
        assert len(reads) == 6

    def test_one_helper_thread_is_reused(self, monkeypatch):
        rng = np.random.default_rng(26)
        x, w, mask = self.case(monkeypatch, rng)
        before = threading.active_count()
        for _ in range(20):
            T.clear_tape()
            T.backward(T.sum_all(masked_attention(x, w, self.HEADS, mask)))
        assert threading.active_count() <= before + 1


def assert_rows_match_unfused(x, w, heads, mask, rows, rng):
    """``masked_attention`` on the query ``rows`` against the same rows of the
    all-rows composition: outputs and every gradient, bit for bit."""
    b, _, d = x.shape
    count = rows.stop - rows.start
    c = Tensor(rng.standard_normal((b, count, d)))
    params = [x] + list(w.named("attn").values())
    results = []
    for attend in (lambda: masked_attention(x, w, heads, mask, rows),
                   lambda: T.narrow(unfused_attention(x, w, heads, mask), 1,
                                    rows.start, count)):
        T.clear_tape()
        for p in params:
            p.zero_grad()
        out = attend()
        T.backward(T.sum_all(out * c))
        results.append([out.data] + [p.grad for p in params])
    assert results[0][0].shape == (b, count, d)
    for fused, unfused in zip(*results):
        assert np.array_equal(fused, unfused)


def attention_support_counts(mode, n, m, rng, heads=2, d=8):
    """Counting oracle: strictly-positive attention entries per row, via the
    dense probability matrix."""
    if mode.dynamic:
        hard = rng.integers(0, n, size=m)
        mask = mode_masks(mode, n, m, hard)
    else:
        mask = mode_masks(mode, n, m)
    t = TokenLayout(mode, n, m).total
    x = rng.standard_normal((t, d))
    dh = d // heads
    w = random_weights(rng, d)
    q = (x @ w.wq.data + w.bq.data).reshape(t, heads, dh).transpose(1, 0, 2)
    k = (x @ w.wk.data + w.bk.data).reshape(t, heads, dh).transpose(1, 0, 2)
    counts = None
    for h in range(heads):
        scores = q[h] @ k[h].T / np.sqrt(dh) + mask
        probs = np.zeros_like(scores)
        for r in range(t):
            row = scores[r]
            e = np.where(np.isneginf(row), 0.0, np.exp(row - row[np.isfinite(row)].max()))
            probs[r] = e / e.sum()
        c = (probs > 0).sum(axis=1)
        if counts is None:
            counts = c
        assert np.array_equal(c, counts), "support must agree across heads"
    return counts


class TestModeMasks:
    def test_samg_is_transpose_of_samb(self):
        samb = mode_masks(MessagePassingMode.SAMB, 2, 4)
        samg = mode_masks(MessagePassingMode.SAMG, 2, 4)
        n = 2
        assert np.array_equal(samg[:n, n:], samb[n:, :n].T)

    def test_gg_only_group_mask(self):
        mask = mode_masks(MessagePassingMode.G_G, 4, 8)
        assert np.array_equal(np.isneginf(mask[:4, :4]),
                              ~np.eye(4, dtype=bool))
        assert np.all(mask[4:, :] == 0)
        assert np.all(mask[:4, 4:] == 0)

    def test_gl_message_scale_per_image_token(self):
        rng = np.random.default_rng(9)
        counts = attention_support_counts(MessagePassingMode.G_L, 2, 8, rng)
        # image-token rows: all M image tokens + class token + own group token
        assert np.all(counts[3:] == 8 + 2)

    def test_dynamic_without_assignment(self):
        with pytest.raises(ContractError):
            mode_masks(MessagePassingMode.SAMB_D, 2, 4)

    def test_dynamic_broadcast_rows_one_hot(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            m = int(rng.integers(2, 20))
            n = int(rng.integers(1, m + 1))
            hard = rng.integers(0, n, size=m)
            mask = mode_masks(MessagePassingMode.SAMB_D, n, m, hard)
            block = mask[n:, :n]
            finite = np.isfinite(block)
            assert np.array_equal(finite.sum(axis=1), np.ones(m))

    def test_vanilla_no_masks(self):
        assert np.all(mode_masks(MessagePassingMode.VANILLA_CLS, 4, 8) == 0)
