"""Masked attention with group tokens.

Builds the {0, -inf} additive masks that route message broadcasting and
aggregation between group tokens and image tokens, for every
message-passing mode, and implements the straight-through Gumbel-Softmax
hard assignment of image tokens to group tokens.

Token layout inside a sequence: [class token (some modes)] + [N group
tokens] + [M image tokens].
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Union

import numpy as np

from . import tensor as T
from .errors import (ConfigError, ContractError, DegenerateMaskError,
                     DimensionError, NumericError)
from .tensor import Tensor

NEG_INF = -np.inf


class MessagePassingMode(Enum):
    SAMB = "samb"
    SAMB_D = "samb-d"
    SAMG = "samg"
    SAMG_D = "samg-d"
    G_G = "g-g"
    G_L = "g-l"
    G_L_D = "g-l-d"
    VANILLA_CLS = "vanilla"

    @property
    def dynamic(self) -> bool:
        return self in (MessagePassingMode.SAMB_D, MessagePassingMode.SAMG_D,
                        MessagePassingMode.G_L_D)

    @property
    def has_class_token(self) -> bool:
        return self in (MessagePassingMode.G_L, MessagePassingMode.G_L_D,
                        MessagePassingMode.VANILLA_CLS)

    @property
    def has_group_tokens(self) -> bool:
        return self is not MessagePassingMode.VANILLA_CLS

    @property
    def broadcasts(self) -> bool:
        """An image token reads only the group token that owns it."""
        return self in (MessagePassingMode.SAMB, MessagePassingMode.SAMB_D,
                        MessagePassingMode.G_L, MessagePassingMode.G_L_D)

    @property
    def gathers(self) -> bool:
        """A group token reads only the image tokens it owns."""
        return self in (MessagePassingMode.SAMG, MessagePassingMode.SAMG_D,
                        MessagePassingMode.G_L, MessagePassingMode.G_L_D)


@dataclass
class TokenLayout:
    """Index bookkeeping for a token sequence under one mode."""
    mode: MessagePassingMode
    num_groups: int
    num_patches: int

    @property
    def has_cls(self) -> bool:
        return self.mode.has_class_token

    @property
    def n_groups(self) -> int:
        return self.num_groups if self.mode.has_group_tokens else 0

    @property
    def total(self) -> int:
        return int(self.has_cls) + self.n_groups + self.num_patches

    @property
    def group_start(self) -> int:
        return int(self.has_cls)

    @property
    def patch_start(self) -> int:
        return int(self.has_cls) + self.n_groups

    @property
    def head_rows(self) -> slice:
        """The rows the fusion head reads: the N group tokens, or the class
        token in vanilla, padded to at least two rows, because numpy sends a
        one-row product to BLAS's gemv, which rounds differently from gemm."""
        start, count = (self.group_start, self.n_groups) if self.n_groups else (0, 1)
        return slice(start, start + max(2, count))


@dataclass
class AttentionMaskPair:
    """broadcast_mask [M, N]: which group token reaches each image token.
    group_mask [N, N]: 0 on the diagonal, -inf elsewhere."""
    broadcast_mask: np.ndarray
    group_mask: np.ndarray


@dataclass
class GumbelConfig:
    temperature: float = 1.0
    noise_enabled: bool = True
    rng_seed: int = 0            # not read: the noise comes from the caller's generator

    def __post_init__(self):
        if self.temperature <= 0:
            raise ConfigError(f"gumbel temperature must be > 0, got {self.temperature}")


@dataclass
class GroupAssignment:
    """Hard token-to-group assignment plus its differentiable surrogates.

    ``soft`` and ``one_hot_st`` are built, and recorded on the tape, only
    when first read.  ``one_hot_st`` evaluates to an exact one-hot matrix
    but backpropagates the gradient of the soft relaxation (straight-through).
    """
    hard: np.ndarray            # [..., M] int indices into [0, N)
    perturbed: Tensor           # [..., M, N] logits plus Gumbel noise
    temperature: float

    @functools.cached_property
    def soft(self) -> Tensor:
        """[..., M, N] Gumbel-perturbed temperature softmax."""
        return T.softmax(self.perturbed * (1.0 / self.temperature), axis=-1)

    @functools.cached_property
    def one_hot_st(self) -> Tensor:
        """[..., M, N] one-hot of ``hard`` with the gradient of ``soft``."""
        one_hot = np.zeros(self.perturbed.shape)
        np.put_along_axis(one_hot, self.hard[..., None], 1.0, axis=-1)
        # forward: exact one-hot; backward: identity onto the soft path
        return T.custom_op(one_hot, (self.soft,), lambda g: (g,))


def group_exclusion_mask(n: int) -> np.ndarray:
    mask = np.full((n, n), NEG_INF)
    np.fill_diagonal(mask, 0.0)
    return mask


def contiguous_regions(n: int, m: int) -> np.ndarray:
    """Owner group index per image token: N even splits, the last region
    absorbs the remainder."""
    if n < 1:
        raise ConfigError(f"need at least one group token, got {n}")
    if n > m:
        raise ConfigError(f"more group tokens ({n}) than image tokens ({m})")
    base = m // n
    owners = np.minimum(np.arange(m) // base, n - 1)
    return owners.astype(np.int64)


def assignment_to_broadcast_mask(hard: np.ndarray, n: int) -> np.ndarray:
    """[..., M] indices -> [..., M, N] mask with 0 at the owner, -inf else."""
    hard = np.asarray(hard)
    mask = np.full(hard.shape + (n,), NEG_INF)
    np.put_along_axis(mask, hard[..., None], 0.0, axis=-1)
    return mask


def handcrafted_mask(n: int, m: int) -> AttentionMaskPair:
    owners = contiguous_regions(n, m)
    return AttentionMaskPair(broadcast_mask=assignment_to_broadcast_mask(owners, n),
                             group_mask=group_exclusion_mask(n))


def sample_gumbel(rng: np.random.Generator, shape) -> np.ndarray:
    u = rng.random(shape)
    # rng.random() is in [0, 1); flip to (0, 1] so log never sees 0
    return -np.log(-np.log(1.0 - u))


def gumbel_assign(soft_logits: Tensor, cfg: GumbelConfig,
                  rng: Optional[np.random.Generator] = None,
                  noise: Optional[np.ndarray] = None) -> GroupAssignment:
    """Hard assignment of each image token (row) to one group token (column).

    ``soft_logits`` has shape [..., M, N].  With noise enabled, each entry is
    perturbed by its own Gumbel(0, 1) draw before the temperature softmax
    and the argmax: the matching entry of ``noise``, drawn by the caller
    with ``sample_gumbel``, or else a draw from the caller's ``rng``.  Ties
    break to the lowest index.
    """
    if not np.all(np.isfinite(soft_logits.data)):
        raise NumericError("gumbel_assign: non-finite assignment logits")
    if cfg.noise_enabled:
        if noise is None:
            if rng is None:
                raise ContractError("gumbel_assign: Gumbel noise needs the caller's generator")
            noise = sample_gumbel(rng, soft_logits.shape)
        perturbed = soft_logits + Tensor(noise)
    else:
        perturbed = soft_logits
    return GroupAssignment(hard=np.argmax(perturbed.data, axis=-1),
                           perturbed=perturbed, temperature=cfg.temperature)


def mode_masks(mode: MessagePassingMode, n: int, m: int,
               hard_assignment: Optional[np.ndarray] = None) -> np.ndarray:
    """Full additive score mask for one sequence, shape [..., T, T].

    For static modes the contiguous even split defines the regions; dynamic
    modes require ``hard_assignment`` ([..., M] group index per image token).
    Entries are 0 (keep) or -inf (cut).  Every -inf lies in the N group
    rows or the N group columns (``mask_bands``).
    """
    if mode.dynamic:
        if hard_assignment is None:
            raise ContractError(f"{mode.value} requires a dynamic assignment")
        hard = np.asarray(hard_assignment)
    elif mode.has_group_tokens and mode is not MessagePassingMode.G_G:
        hard = contiguous_regions(n, m)
    else:
        hard = None

    layout = TokenLayout(mode, n, m)
    t = layout.total
    lead = () if hard is None or hard.ndim == 1 else hard.shape[:-1]
    mask = np.zeros(lead + (t, t))
    if not mode.has_group_tokens:
        return mask

    gs, ps = layout.group_start, layout.patch_start
    mask[..., gs:ps, gs:ps] = group_exclusion_mask(n)
    if hard is None:
        return mask
    bmask = assignment_to_broadcast_mask(hard, n)            # [..., M, N]
    # g-l: the group tokens are local in both directions; the class token
    # row and column stay fully unmasked
    if mode.broadcasts:
        mask[..., ps:, gs:ps] = bmask
    if mode.gathers:
        mask[..., gs:ps, ps:] = np.swapaxes(bmask, -1, -2)
    return mask


# (rows, columns, values): an additive mask on the scores' block of those
# token rows and columns; values are [rows, columns] or [B, rows, columns]
Band = tuple[slice, slice, np.ndarray]


def mask_bands(mode: MessagePassingMode, layout: TokenLayout, mask: np.ndarray,
               hard: Optional[np.ndarray] = None) -> list[Band]:
    """The blocks of a mode's [T, T] ``mask`` (``mode_masks``) that can hold
    a cut, as bands for ``masked_attention``.

    Each image token reaches exactly one group token, so every -inf lies in
    the group tokens' own [N, N] block, the image rows' group columns
    ([M, N], modes that broadcast) or the group rows' image columns ([N, M],
    modes that gather); the bands are views of those blocks.  With [B, M]
    ``hard`` the image blocks come instead from its [B, M, N] owner band
    (``assignment_to_broadcast_mask``) and its transpose: a dynamic mode's
    mask for that assignment, of which ``mask`` gives only the group block.
    """
    if not mode.has_group_tokens:
        return []
    g, p = slice(layout.group_start, layout.patch_start), slice(layout.patch_start, None)
    if hard is None:
        columns, rows = mask[p, g], mask[g, p]
    else:
        columns = assignment_to_broadcast_mask(hard, layout.n_groups)
        rows = np.swapaxes(columns, -1, -2)
    bands = [(g, g, mask[g, g])]
    if mode.broadcasts:
        bands.append((p, g, columns))
    if mode.gathers:
        bands.append((g, p, rows))
    return bands


@dataclass
class AttentionWeights:
    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.{k}": getattr(self, k)
                for k in ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")}


def masked_attention(tokens: Tensor, weights: AttentionWeights, n_heads: int,
                     mask: Union[np.ndarray, list[Band], Callable[[np.ndarray, np.ndarray],
                                                                  Union[np.ndarray, list[Band]]]],
                     rows: slice = slice(None),
                     prenorm: Optional[tuple[Tensor, Tensor]] = None) -> Tensor:
    """Multi-head attention over [B, T, d] tokens with one shared additive
    score mask per sequence (the same mask for every head), as one tape node.

    ``mask`` is a [T, T] or [B, T, T] array; or a list of bands
    (``mask_bands``), each of which adds its [r, c] or [B, r, c] values to
    the scores of its rows and columns, the rest of the mask being 0; or a
    function of the [B, T, d] q and k arrays this call projects, called once
    before attending, that returns either.  An array is the band over every
    row and column.  Only the query rows in the contiguous slice ``rows``
    attend, against keys and values of every token: the output is
    [B, len(rows), d], the matching rows of the all-rows output, with the
    same bits.  Adding a band in place of its full [T, T] mask leaves every
    score's bits, except that a -0.0 no longer becomes +0.0, which the
    softmax cannot tell apart: output and gradients are bit-identical.

    With ``prenorm=(gamma, beta)`` the call is a pre-norm residual branch:
    it attends over ``T.layer_norm(tokens, gamma, beta)`` and adds the
    ``rows`` of ``tokens`` to the output.

    The node keeps the head splits of q, k and v, the kernel's buffers, row
    statistics and the bands' values as views (``_attend``), the merged
    attention output that the output projection reads and, with
    ``prenorm``, the layer norm's [B, T, 1] ``mu`` and ``inv``; not the
    [B, T, d] projections, the layer norm's ``xhat`` or output, or the
    attention output before the residual add.  Its backward runs the steps
    of the backward walk over the composition (``layer_norm``), ``linear``
    (q, k, v), ``narrow`` (q rows), kernel, ``linear`` (output), (``narrow``
    of the residual rows, ``add``): the output projection, the kernel, the
    q-row narrow's zero padding, then v, k and q, whose gradients it adds in
    place as ``(v + k) + q``; with ``prenorm``, it rebuilds ``xhat`` from the
    tokens (``T._xhat``) and the layer norm's output from it for the weight
    gradients, then ``xhat`` again for the layer norm's backward, and adds
    that gradient to the residual's (zero-padded to every row).  Output and gradients are
    bit-identical to the composition's
    (``tests/helpers.py::unfused_masked_attention`` and
    ``unfused_attention_branch``) when the tokens feed no later node.
    """
    _, t, d = tokens.shape
    if d % n_heads != 0:
        raise ConfigError(f"embed dim {d} not divisible by {n_heads} heads")
    start, stop, step = rows.indices(t)
    if step != 1 or start >= stop:
        raise ContractError(f"attention: rows {rows} are not a non-empty contiguous slice")
    q_rows = np.s_[:, start:stop]
    w = weights
    gamma, beta = prenorm or (None, None)
    if prenorm is None:
        x, mu, inv = tokens.data, None, None
    else:
        x, mu, inv = T._normalize(tokens.data, gamma, beta, "attention")
    q = T._affine(x, w.wq, w.bq, "attention")
    k = T._affine(x, w.wk, w.bk, "attention")
    v = T._affine(x, w.wv, w.bv, "attention")
    mask = mask(q, k) if callable(mask) else mask
    bands = mask if isinstance(mask, list) else [(slice(None), slice(None), mask)]
    merged, attend_backward = _attend(q[q_rows], k, v, n_heads,
                                      _score_bands(bands, tokens.shape, start, stop))
    out = T._affine(merged, w.wo, w.bo, "attention")
    if prenorm is not None:
        out += tokens.data[q_rows]               # the residual

    def backward(g):
        gm, gwo, gbo = T._affine_grads(merged, w.wo, w.bo, g, True)
        gq, gk, gv = attend_backward(gm)
        del gm
        gq = T._pad(gq, tokens.shape, q_rows)
        x = (tokens.data if prenorm is None
             else T._scale_shift(T._xhat(tokens.data, mu, inv), gamma, beta))
        need_h = tokens.requires_grad or prenorm is not None
        gx, gwv, gbv = T._affine_grads(x, w.wv, w.bv, gv, need_h)
        gx_k, gwk, gbk = T._affine_grads(x, w.wk, w.bk, gk, need_h)
        if need_h:
            gx += gx_k                           # (v + k), in v's new buffer
        del gv, gk, gx_k
        gx_q, gwq, gbq = T._affine_grads(x, w.wq, w.bq, gq, need_h)
        if need_h:
            gx += gx_q
        del x, gq, gx_q
        grads = gwq, gbq, gwk, gbk, gwv, gbv, gwo, gbo
        if prenorm is None:
            return (gx, *grads)
        gx, ggamma, gbeta = T._layer_norm_grads(tokens.data, mu, inv, gamma, gx)
        return (T._pad(g, tokens.shape, q_rows) + gx if tokens.requires_grad else None,
                ggamma, gbeta, *grads)

    return T.custom_op(out, (tokens, *(prenorm or ()), w.wq, w.bq, w.wk, w.bk,
                             w.wv, w.bv, w.wo, w.bo), backward)


def _score_chunks(b: int, n_heads: int, tq: int, tk: int) -> list[tuple[slice, slice]]:
    """The (sequences, heads) index pairs that walk [B, H, Tq, Tk] scores in
    pieces of at most ``T._CHUNK_ELEMS`` elements: whole sequences while one
    fits, else the heads of one sequence (at least one head a piece)."""
    per_sequence = n_heads * tq * tk
    if per_sequence <= T._CHUNK_ELEMS:
        per_chunk = T._CHUNK_ELEMS // per_sequence
        return [(slice(i, min(i + per_chunk, b)), slice(0, n_heads))
                for i in range(0, b, per_chunk)]
    per_chunk = max(1, T._CHUNK_ELEMS // (tq * tk))
    return [(slice(i, i + 1), slice(h, min(h + per_chunk, n_heads)))
            for i in range(b) for h in range(0, n_heads, per_chunk)]


def _score_bands(bands: list[Band], shape: tuple, start: int, stop: int) -> list[Band]:
    """``bands`` of a mask on the scores of [B, T, d] tokens, cut to the
    query rows ``start:stop``: each band's rows among them, counted from
    ``start``, and its values as a [B, 1, rows, columns] or [1, 1, rows,
    columns] view, one mask per sequence or one for all, broadcast over the
    heads.  A band with no such row is left out."""
    b, t, _ = shape
    cut = []
    for rows, cols, values in bands:
        (r0, r1, r_step), (c0, c1, c_step) = rows.indices(t), cols.indices(t)
        values = np.asarray(values)
        block = (r1 - r0, c1 - c0)
        if values.shape not in (block, (b, *block)) or r_step != 1 or c_step != 1:
            raise DimensionError(f"attention: mask {values.shape} fits neither {list(block)} "
                                 f"nor [B, {block[0]}, {block[1]}] of rows {r0}:{r1} and "
                                 f"columns {c0}:{c1} of tokens {shape}")
        lo, hi = max(r0, start), min(r1, stop)
        if lo < hi:
            values = values[..., lo - r0:hi - r0, :]
            values = values[None, None] if values.ndim == 2 else values[:, None]
            cut.append((slice(lo - start, hi - start), slice(c0, c1), values))
    return cut


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, n_heads: int,
            bands: list[Band]) -> tuple[np.ndarray, Callable]:
    """softmax(q_h k_h^T / sqrt(dh) + mask) v_h per head, merged back to
    [B, Tq, d], for [B, Tq, d] ``q``, [B, Tk, d] ``k`` and ``v``, and a mask
    given as ``bands`` whose values are [B, 1, rows, columns] or [1, 1, rows,
    columns] (``_score_bands``); the mask is 0 outside them.  Returns the
    merged output and its backward, which maps the output's gradient to
    those of q, k and v.

    The [B, H, Tq, Tk] scores never exist at once: they are walked in the
    chunks of ``_score_chunks``, which ``T.run_lanes`` shares between two
    lanes.  A chunk adds its sequences' rows of each band's values, as a
    view, to that band's block of its scores, so no mask is copied per
    sequence or head.  Each lane scales, masks and normalises its chunk in
    place in its own reused buffer, which becomes that chunk's
    probabilities.  The kernel keeps the contiguous head splits of q and v,
    k^T, the row max and row sum, the buffers and the bands; the backward
    runs the chunks in reverse, so each lane starts on the chunk its buffer
    still holds (``held``; another one after a repeated backward or a change
    of lane count), and recomputes every other chunk's probabilities from
    the saved row statistics.  Its per-lane scratch is freed before the
    gradients are merged.  Chunks write disjoint (sequence, head) blocks,
    and the numpy operations, their order and their operands' layouts are
    those of the primitive-op composition, so forward and backward are
    bit-identical to it on one lane or two.  For the same reason the scale
    is not folded into q: that rounds differently.
    """
    b, tq, d = q.shape
    tk = k.shape[1]
    dh = d // n_heads

    def split(y: np.ndarray) -> np.ndarray:      # [B, t, d] -> [B, H, t, dh] view
        return y.reshape(b, y.shape[1], n_heads, dh).transpose(0, 2, 1, 3)

    def merge(y: np.ndarray) -> np.ndarray:      # [B, H, t, dh] -> [B, t, d]
        return y.transpose(0, 2, 1, 3).reshape(b, y.shape[2], d)

    qh = np.ascontiguousarray(split(q))
    kt = np.ascontiguousarray(split(k).transpose(0, 1, 3, 2))
    vh = np.ascontiguousarray(split(v))
    scale = float(1.0 / np.sqrt(dh))
    chunks = _score_chunks(b, n_heads, tq, tk)
    seqs, heads = chunks[0]                      # the first chunk is a largest one
    chunk_shape = (seqs.stop - seqs.start, heads.stop - heads.start, tq, tk)
    bufs = [np.empty(chunk_shape) for _ in chunks[:2]]    # one per lane that can run
    held = [None] * len(bufs)                    # chunk whose probabilities are in each buffer
    row_max = np.empty((b, n_heads, tq, 1))
    row_sum = np.empty((b, n_heads, tq, 1))

    def fit(a: np.ndarray, i: int) -> np.ndarray:   # a lane's array, cut to chunk i
        seqs, heads = chunks[i]
        return a[:seqs.stop - seqs.start, :heads.stop - heads.start]

    def scores(lane: int, i: int) -> np.ndarray:
        c = chunks[i]
        y = np.matmul(qh[c], kt[c], out=fit(bufs[lane], i))
        y *= scale
        for rows, cols, values in bands:
            block = y[..., rows, cols]
            block += values if len(values) == 1 else values[c[0]]
        return y

    out = split(np.empty((b, tq, d)))            # so that merge(out) is a view

    def probs(lane: int, i: int):
        c = chunks[i]
        y = scores(lane, i)
        m = np.max(y, axis=-1, keepdims=True, out=row_max[c])
        if np.any(np.isneginf(m)):
            raise DegenerateMaskError("softmax: a row is fully masked (all -inf)")
        y -= m
        np.exp(y, out=y)
        y /= np.sum(y, axis=-1, keepdims=True, out=row_sum[c])
        np.matmul(y, vh[c], out=out[c])
        held[lane] = i

    T.run_lanes(probs, len(chunks))
    # the lanes multiply with np.matmul; the count is this thread's alone
    T.count_matmul_flops(qh.shape, kt.shape)
    T.count_matmul_flops((b, n_heads, tq, tk), vh.shape)

    def backward(g):
        g = split(g)
        # dq and dv are written through head-split views of [B, t, d] buffers,
        # which ``merge`` then views back; dk^T's columns would not reach BLAS
        dq, dkt, dv = split(np.empty((b, tq, d))), np.empty_like(kt), split(np.empty((b, tk, d)))
        scratch = [(np.empty(chunk_shape), np.empty(chunk_shape),     # per lane: dP,
                    np.empty(chunk_shape[:-1] + (1,))) for _ in bufs]  # p * y, row dot

        def grads(lane: int, i: int):
            c = chunks[i]
            if held[lane] != i:
                y = scores(lane, i)
                y -= row_max[c]
                np.exp(y, out=y)
                y /= row_sum[c]
                held[lane] = i
            y = fit(bufs[lane], i)
            p, py, dot = (fit(s, i) for s in scratch[lane])
            gs = g[c]
            np.matmul(gs, np.swapaxes(vh[c], -1, -2), out=p)
            np.matmul(np.swapaxes(y, -1, -2), gs, out=dv[c])
            np.multiply(p, y, out=py)
            np.add.reduce(py, axis=-1, keepdims=True, out=dot)   # what .sum runs
            p -= dot                             # p becomes the score gradient
            p *= y
            p *= scale
            np.matmul(p, np.swapaxes(kt[c], -1, -2), out=dq[c])
            np.matmul(np.swapaxes(qh[c], -1, -2), p, out=dkt[c])

        T.run_lanes(grads, len(chunks), reverse=True)
        del scratch
        return merge(dq), merge(dkt.transpose(0, 1, 3, 2)), merge(dv)

    return merge(out), backward
