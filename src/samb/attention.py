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
    Entries are 0 (keep) or -inf (cut).
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
    mask[..., gs:gs + n, gs:gs + n] = group_exclusion_mask(n)
    if mode is MessagePassingMode.G_G:
        return mask

    bmask = assignment_to_broadcast_mask(hard, n)            # [..., M, N]
    amask = np.swapaxes(bmask, -1, -2)                       # [..., N, M]
    if mode in (MessagePassingMode.SAMB, MessagePassingMode.SAMB_D):
        mask[..., ps:, gs:gs + n] = bmask
    elif mode in (MessagePassingMode.SAMG, MessagePassingMode.SAMG_D):
        mask[..., gs:gs + n, ps:] = amask
    elif mode in (MessagePassingMode.G_L, MessagePassingMode.G_L_D):
        # group tokens are local in both directions; the class token row and
        # column stay fully unmasked
        mask[..., ps:, gs:gs + n] = bmask
        mask[..., gs:gs + n, ps:] = amask
    return mask


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
                     mask: Union[np.ndarray, Callable[[np.ndarray, np.ndarray], np.ndarray]],
                     rows: slice = slice(None),
                     prenorm: Optional[tuple[Tensor, Tensor]] = None) -> Tensor:
    """Multi-head attention over [B, T, d] tokens with one shared additive
    score mask per sequence (the same mask for every head), as one tape node.

    ``mask`` is a [T, T] or [B, T, T] array, or a function of the [B, T, d]
    q and k arrays this call projects, called once before attending, that
    returns one.  Only the query rows in the contiguous slice ``rows`` attend,
    against keys and values of every token: the output is [B, len(rows), d],
    the matching rows of the all-rows output, with the same bits.

    With ``prenorm=(gamma, beta)`` the call is a pre-norm residual branch:
    it attends over ``T.layer_norm(tokens, gamma, beta)`` and adds the
    ``rows`` of ``tokens`` to the output.

    The node keeps the head splits of q, k and v, the kernel's buffers, row
    statistics and mask (``_attend``), the merged attention output that the
    output projection reads and, with ``prenorm``, the layer norm's ``xhat``
    and ``inv``; not the [B, T, d] projections, the layer norm's output or
    the attention output before the residual add.  Its backward runs the
    steps of the backward walk over the composition (``layer_norm``),
    ``linear`` (q, k, v), ``narrow`` (q rows), kernel, ``linear`` (output),
    (``narrow`` of the residual rows, ``add``): the output projection, the
    kernel, the q-row narrow's zero padding, then v, k and q, whose
    gradients it adds as ``(v + k) + q``; with ``prenorm``, it recomputes the
    layer norm's output for the weight gradients, runs the layer norm's
    backward and adds its gradient to the residual's (zero-padded to every
    row).  Output and gradients are bit-identical to the composition's
    (``tests/helpers.py::unfused_masked_attention`` and
    ``unfused_attention_branch``) when the tokens feed no later node.
    """
    b, t, d = tokens.shape
    if d % n_heads != 0:
        raise ConfigError(f"embed dim {d} not divisible by {n_heads} heads")
    start, stop, step = rows.indices(t)
    if step != 1 or start >= stop:
        raise ContractError(f"attention: rows {rows} are not a non-empty contiguous slice")
    w = weights
    gamma, beta = prenorm or (None, None)
    if prenorm is None:
        x, xhat, inv = tokens.data, None, None
    else:
        xhat, inv = T._normalize(tokens.data, gamma, beta, "attention")
        x = T._scale_shift(xhat, gamma, beta)
    q = T._affine(x, w.wq, w.bq, "attention")
    k = T._affine(x, w.wk, w.bk, "attention")
    v = T._affine(x, w.wv, w.bv, "attention")
    mask = np.asarray(mask(q, k) if callable(mask) else mask)
    if mask.shape not in ((t, t), (b, t, t)):
        raise DimensionError(f"attention: mask {mask.shape} fits neither [T, T] "
                             f"nor [B, T, T] of tokens {tokens.shape}")
    # [B, 1, Tq, T]: one mask per sequence, broadcast over the heads
    mask = np.broadcast_to(mask.reshape(-1, 1, t, t)[..., start:stop, :],
                           (b, 1, stop - start, t))
    merged, attend_backward = _attend(q[:, start:stop], k, v, n_heads, mask)
    out = T._affine(merged, w.wo, w.bo, "attention")
    if prenorm is not None:
        out += tokens.data[:, start:stop]        # the residual

    def pad(g: np.ndarray) -> np.ndarray:        # a row narrow's backward
        if stop - start == t:
            return g
        full = np.zeros((b, t, d))
        full[:, start:stop] = g
        return full

    def backward(g):
        gm, gwo, gbo = T._affine_grads(merged, w.wo, w.bo, g, True)
        gq, gk, gv = attend_backward(gm)
        del gm
        gq = pad(gq)
        x = tokens.data if xhat is None else T._scale_shift(xhat, gamma, beta)
        need_h = tokens.requires_grad or xhat is not None
        gx_v, gwv, gbv = T._affine_grads(x, w.wv, w.bv, gv, need_h)
        gx_k, gwk, gbk = T._affine_grads(x, w.wk, w.bk, gk, need_h)
        gx_q, gwq, gbq = T._affine_grads(x, w.wq, w.bq, gq, need_h)
        del x, gq, gk, gv
        gx = (gx_v + gx_k) + gx_q if need_h else None
        grads = gwq, gbq, gwk, gbk, gwv, gbv, gwo, gbo
        if xhat is None:
            return (gx, *grads)
        gx, ggamma, gbeta = T._layer_norm_grads(xhat, inv, gamma, gx)
        return (pad(g) + gx if tokens.requires_grad else None, ggamma, gbeta, *grads)

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


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, n_heads: int,
            mask: np.ndarray) -> tuple[np.ndarray, Callable]:
    """softmax(q_h k_h^T / sqrt(dh) + mask) v_h per head, merged back to
    [B, Tq, d], for [B, Tq, d] ``q``, [B, Tk, d] ``k`` and ``v``, and a
    [B, 1, Tq, Tk] ``mask``.  Returns the merged output and its backward,
    which maps the output's gradient to those of q, k and v.

    The [B, H, Tq, Tk] scores never exist at once: they are walked in the
    chunks of ``_score_chunks``, which ``T.run_lanes`` shares between two
    lanes.  A chunk reads its sequences' rows of ``mask`` as a view, so no
    mask is copied per sequence or head.  Each lane scales, masks and
    normalises its chunk in place in its own reused buffer, which becomes
    that chunk's probabilities.  The kernel keeps the contiguous head
    splits of q and v, k^T, the row max and row sum, and the buffers; the
    backward runs the chunks in reverse, so each lane starts on the chunk
    its buffer still holds (``held``; another one after a repeated backward
    or a change of lane count), and recomputes every other chunk's
    probabilities from the saved row statistics.  Chunks write disjoint
    (sequence, head) blocks, and the numpy operations, their order and
    their operands' layouts are those of the primitive-op composition, so
    forward and backward are bit-identical to it on one lane or two.  For
    the same reason the scale is not folded into q: that rounds differently.
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
        y += mask[c[0]]
        return y

    out = np.empty((b, n_heads, tq, dh))

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
        dq, dkt, dv = np.empty_like(qh), np.empty_like(kt), np.empty_like(vh)
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
        return merge(dq), merge(dkt.transpose(0, 1, 3, 2)), merge(dv)

    return merge(out), backward
