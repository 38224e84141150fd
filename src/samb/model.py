"""Tiny ViT backbone with group tokens, masked message passing, and a
fusion attention head that collapses the N group tokens into the single
feature used for classification and domain alignment."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import tensor as T
from .attention import (AttentionWeights, GumbelConfig, MessagePassingMode,
                        TokenLayout, gumbel_assign, masked_attention, mode_masks,
                        sample_gumbel)
from .errors import ConfigError, ContractError, DegenerateMaskError, NumericError
from .tensor import Tensor

# What one config may ask to allocate at most: constants, not config keys
MAX_PARAM_BYTES = 256 << 20         # the model's float64 parameters
MAX_SCORE_BYTES = 256 << 20         # one sequence's [H, T, T] attention scores;
                                    # an attention call allocates at least one head's


@dataclass
class ModelConfig:
    image_size: int = 16
    patch_size: int = 4
    in_channels: int = 3
    embed_dim: int = 32
    depth: int = 2
    heads: int = 4
    mlp_ratio: int = 4
    num_classes: int = 4
    num_group_tokens: int = 4
    mode: MessagePassingMode = MessagePassingMode.SAMB_D
    gumbel: GumbelConfig = field(default_factory=GumbelConfig)

    def __post_init__(self):
        for key in ("patch_size", "embed_dim", "depth", "heads", "mlp_ratio"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1, got {getattr(self, key)}")
        if self.image_size % self.patch_size != 0:
            raise ConfigError(
                f"image size {self.image_size} not divisible by patch {self.patch_size}")
        if self.embed_dim % self.heads != 0:
            raise ConfigError(
                f"embed dim {self.embed_dim} not divisible by {self.heads} heads")
        if self.num_group_tokens < 1:
            raise ConfigError("need at least one group token")
        if self.mode.has_group_tokens and self.num_group_tokens > self.num_patches:
            raise ConfigError(
                f"{self.num_group_tokens} group tokens exceed {self.num_patches} patches")
        self._check_bytes("the model parameters", 8 * self.param_count, MAX_PARAM_BYTES,
                          ("image_size", "patch_size", "in_channels", "embed_dim", "depth",
                           "mlp_ratio", "num_group_tokens", "num_classes"))
        self._check_bytes("one sequence's attention scores",
                          8 * self.heads * self.layout.total ** 2, MAX_SCORE_BYTES,
                          ("image_size", "patch_size", "num_group_tokens", "heads"))

    def _check_bytes(self, what: str, nbytes: int, cap: int, keys: tuple):
        if nbytes > cap:
            values = ", ".join(f"{k} = {getattr(self, k)}" for k in keys)
            raise ConfigError(f"{what} would take {nbytes} bytes, above the cap of "
                              f"{cap >> 20} MiB; they follow from {values} (samb train "
                              "reads image_size, in_channels and num_classes from the data)")

    @property
    def param_count(self) -> int:
        """The parameter count of ``VitSamb(self)``, from the config alone."""
        d, r, layout = self.embed_dim, self.mlp_ratio, self.layout
        block = 4 * d + 4 * (d * d + d) + 2 * r * d * d + r * d + d   # norms, attn, mlp
        return (self.patch_size ** 2 * self.in_channels * d + d       # patch embedding
                + self.num_patches * d                                 # position embedding
                + (layout.n_groups + layout.has_cls) * d               # group and class tokens
                + (d if self.mode.has_group_tokens else 0)             # fusion query
                + self.depth * block + 2 * d                           # blocks, final norm
                + (d + 1) * self.num_classes)                          # head

    @property
    def num_patches(self) -> int:
        return (self.image_size // self.patch_size) ** 2

    @property
    def grid(self) -> int:
        return self.image_size // self.patch_size

    @property
    def layout(self) -> TokenLayout:
        return TokenLayout(self.mode, self.num_group_tokens, self.num_patches)


@dataclass
class ForwardResult:
    logits: Tensor                     # [B, C]
    feature: Tensor                    # [B, d] fused alignment feature
    fusion_weights: Tensor             # [B, N] (ones for the vanilla mode)
    assignments: list[np.ndarray]      # [B, M] group indices per layer, dynamic modes only


def trunc_normal(rng: np.random.Generator, shape, std: float = 0.02) -> np.ndarray:
    x = rng.normal(0.0, std, size=shape)
    return np.clip(x, -2.0 * std, 2.0 * std)


def xavier(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Glorot-scaled init; the 0.02 ViT default is too small to train a
    model this size from scratch with plain SGD."""
    std = np.sqrt(2.0 / (fan_in + fan_out))
    return trunc_normal(rng, (fan_in, fan_out), std)


def fusion_head(x: Tensor, query: Tensor, n: int) -> tuple[Tensor, np.ndarray]:
    """(fused [B, d] feature, [B, N] fusion weights) of the first ``n``
    token rows of [B, rows, d] ``x``: the softmax over the rows of their
    scaled scores against the [d, 1] ``query``, and the weighted sum of
    the rows.

    The feature is one node; the weights are a plain value.  The node keeps
    the N rows and the weights.  Output and gradients are bit-identical to
    the composition ``narrow``, ``matmul``, ``reshape``, ``scale``,
    ``softmax``, ``reshape``, ``mul``, ``sum_axis``
    (``tests/helpers.py::unfused_fusion_head``).
    """
    b, _, d = x.shape
    s = float(1.0 / np.sqrt(d))
    xg = np.ascontiguousarray(x.data[:, :n])                 # [B, N, d]
    scores = T.counted_matmul(xg, query.data).reshape(b, n) * s
    m = np.max(scores, axis=-1, keepdims=True)
    if np.any(np.isneginf(m)):
        raise DegenerateMaskError("softmax: a row is fully masked (all -inf)")
    e = np.exp(scores - m)
    weights = e / e.sum(axis=-1, keepdims=True)
    w3 = weights.reshape(b, n, 1)

    def backward(g):
        gm = np.broadcast_to(np.expand_dims(g, 1), (b, n, d)).copy()
        gw = (gm * xg).sum(axis=2, keepdims=True).reshape(b, n)
        gxg = gm * w3
        gs = (weights * (gw - (gw * weights).sum(axis=-1, keepdims=True))) * s
        gs = gs.reshape(b, n, 1)
        gxg = gxg + np.matmul(gs, np.swapaxes(query.data, -1, -2))
        gq = T._reduce_to(np.matmul(np.swapaxes(xg, -1, -2), gs), query.shape)
        gx = np.zeros_like(x.data)
        gx[:, :n] = gxg
        return gx, gq

    return T.custom_op((w3 * xg).sum(axis=1), (x, query), backward), weights


def mlp_branch(x: Tensor, gamma: Tensor, beta: Tensor, w1: Tensor, b1: Tensor,
               w2: Tensor, b2: Tensor) -> Tensor:
    """The pre-norm MLP residual branch ``x + mlp(layer_norm(x))`` as one node.

    The node keeps the layer norm's ``xhat`` and ``inv`` and the MLP's
    pre-activation and GELU cdf; its backward recomputes the layer norm's
    output and the GELU output with the forward's numpy operations.  It
    adds the residual gradient and the layer norm's in that order, as the
    backward walk over the composition ``layer_norm``, ``mlp``, ``add`` does
    (``tests/helpers.py::unfused_mlp_branch``), so output and gradients are
    bit-identical to it.
    """
    xhat, inv = T._normalize(x.data, gamma, beta, "mlp")
    out, a, cdf = T._mlp_forward(T._scale_shift(xhat, gamma, beta), w1, b1, w2, b2, "mlp")
    out += x.data                                # the residual

    def backward(g):
        ga, gw2, gb2 = T._mlp_hidden_grads(a, cdf, w2, b2, g)
        gh, gw1, gb1 = T._affine_grads(T._scale_shift(xhat, gamma, beta), w1, b1, ga, True)
        del ga
        gx, ggamma, gbeta = T._layer_norm_grads(xhat, inv, gamma, gh)
        return g + gx, ggamma, gbeta, gw1, gb1, gw2, gb2

    return T.custom_op(out, (x, gamma, beta, w1, b1, w2, b2), backward)


class VitSamb:
    """Pre-norm ViT blocks with mode-dependent attention masks."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.cfg = cfg
        d = cfg.embed_dim
        p = cfg.patch_size
        patch_dim = p * p * cfg.in_channels

        self._params: dict[str, Tensor] = {}   # record name -> parameter
        # a static mode's mask depends only on the config; read-only, so that
        # an in-place write raises instead of corrupting later forwards
        self._static_mask: Optional[np.ndarray] = None
        if not cfg.mode.dynamic:
            self._static_mask = mode_masks(cfg.mode, cfg.num_group_tokens, cfg.num_patches)
            self._static_mask.flags.writeable = False

        def leaf(data):
            return Tensor(data, requires_grad=True)

        def param(name, data):
            self._params[name] = t = leaf(data)
            return t

        self.patch_w = param("patch_w", xavier(rng, patch_dim, d))
        self.patch_b = param("patch_b", np.zeros(d))
        self.pos_embed = param("pos_embed", trunc_normal(rng, (cfg.num_patches, d)))
        self.group_tokens = (param("group_tokens", trunc_normal(rng, (cfg.num_group_tokens, d)))
                             if cfg.mode.has_group_tokens else None)
        self.cls_token = (param("cls_token", trunc_normal(rng, (d,)))
                          if cfg.mode.has_class_token else None)
        self.blocks = []
        for i in range(cfg.depth):
            block = {}

            def add(key, data):
                block[key] = param(f"block{i}.{key}", data)

            # record order is creation order; the norms draw nothing from rng,
            # so creating them before attn leaves the draw order unchanged
            add("ln1_g", np.ones(d))
            add("ln1_b", np.zeros(d))
            block["attn"] = AttentionWeights(
                wq=leaf(xavier(rng, d, d)), bq=leaf(np.zeros(d)),
                wk=leaf(xavier(rng, d, d)), bk=leaf(np.zeros(d)),
                wv=leaf(xavier(rng, d, d)), bv=leaf(np.zeros(d)),
                wo=leaf(xavier(rng, d, d)), bo=leaf(np.zeros(d)))
            self._params.update(block["attn"].named(f"block{i}.attn"))
            add("ln2_g", np.ones(d))
            add("ln2_b", np.zeros(d))
            add("mlp_w1", xavier(rng, d, cfg.mlp_ratio * d))
            add("mlp_b1", np.zeros(cfg.mlp_ratio * d))
            add("mlp_w2", xavier(rng, cfg.mlp_ratio * d, d))
            add("mlp_b2", np.zeros(d))
            self.blocks.append(block)
        self.ln_f_g = param("ln_f_g", np.ones(d))
        self.ln_f_b = param("ln_f_b", np.zeros(d))
        self.fusion_query = (param("fusion_query", xavier(rng, d, 1))
                             if cfg.mode.has_group_tokens else None)
        self.head_w = param("head_w", xavier(rng, d, cfg.num_classes))
        self.head_b = param("head_b", np.zeros(cfg.num_classes))

    # -- parameter plumbing -------------------------------------------------

    def named_params(self) -> dict[str, Tensor]:
        """Every parameter under its checkpoint record name, in record order."""
        return dict(self._params)

    def params(self) -> list[Tensor]:
        return list(self._params.values())

    def save(self, path):
        T.save_checkpoint(path, self.named_params())

    def load(self, path):
        loaded = T.load_checkpoint(path)
        own = self.named_params()
        # extra records (e.g. discriminator weights) are fine; missing are not
        missing = set(own) - set(loaded)
        if missing:
            raise ConfigError(f"checkpoint is missing parameters: {sorted(missing)}")
        for name, t in own.items():
            if t.shape != loaded[name].shape:
                raise ConfigError(f"checkpoint shape mismatch for {name}")
            t.data = loaded[name].data

    # -- forward ------------------------------------------------------------

    def patchify(self, images: np.ndarray) -> np.ndarray:
        """[B, C, H, W] -> [B, M, p*p*C] row-major patch flattening."""
        cfg = self.cfg
        b, c, h, w = images.shape
        if c != cfg.in_channels or h != cfg.image_size or w != cfg.image_size:
            raise ConfigError(f"image shape {images.shape[1:]} does not match config")
        p, g = cfg.patch_size, cfg.grid
        x = images.reshape(b, c, g, p, g, p)
        x = x.transpose(0, 2, 4, 3, 5, 1)        # [B, gh, gw, p, p, C]
        return x.reshape(b, g * g, p * p * c)

    def _layer_assignment(self, q: np.ndarray, k: np.ndarray,
                          noise: Optional[np.ndarray]) -> np.ndarray:
        """[B, M] hard group index per image token, from this layer's own
        attention projections.

        Logits are the full-dimension Q_p.K_g products of the M patch rows of
        ``q`` with the N group rows of ``k``, the [B, T, d] projections that
        ``masked_attention`` made; the resulting hard mask enters attention as
        a constant so the loss stays locally differentiable in every parameter.
        ``noise`` holds this block's Gumbel draws, or is None in a forward
        without noise.
        """
        cfg = self.cfg
        layout = cfg.layout
        qp = q[:, layout.patch_start:]
        kg = k[:, layout.group_start:layout.patch_start]
        logits = np.matmul(qp, np.swapaxes(kg, -1, -2)) / np.sqrt(cfg.embed_dim)
        gcfg = cfg.gumbel if noise is not None else replace(cfg.gumbel, noise_enabled=False)
        return gumbel_assign(Tensor(logits), gcfg, noise=noise).hard

    def forward(self, images: np.ndarray, train: bool = False,
                rng: Optional[np.random.Generator] = None,
                split: Optional[int] = None):
        """The ForwardResult of a batch; with ``split``, of each of two.

        With ``split``, the first ``split`` rows of ``images`` are one
        domain's batch and the others another's.  The backbone and the
        fusion head run once over both, under ``T.batch_split``, and the
        classifier head runs on each domain's features: it is one [B, d]
        product, whose rows BLAS may round by B (a one-sample batch's goes to
        gemv).  Every output and gradient then has the bits of two separate
        forwards, and the Gumbel noise is drawn in their order.  The
        per-domain fusion weights are a plain value.
        """
        b = images.shape[0]
        if split is None:
            fused, weights, assignments = self._features(images, train, rng, (b,))
            return ForwardResult(self._head(fused), fused, weights, assignments)
        if not 0 < split < b:
            raise ContractError(f"forward: split {split} leaves a batch of {b} empty")
        with T.batch_split(split):
            fused, weights, assignments = self._features(images, train, rng,
                                                         (split, b - split))
        results = []
        for rows in (slice(0, split), slice(split, b)):
            feature = T.narrow(fused, 0, rows.start, rows.stop - rows.start)
            results.append(ForwardResult(
                logits=self._head(feature), feature=feature,
                fusion_weights=Tensor(weights.data[rows]),
                assignments=[hard[rows] for hard in assignments]))
        return tuple(results)

    def _head(self, fused: Tensor) -> Tensor:
        return T.linear(fused, self.head_w, self.head_b)

    def _features(self, images: np.ndarray, train: bool,
                  rng: Optional[np.random.Generator], sizes: tuple):
        """(fused feature, fusion weights, assignments) of the batches of
        ``sizes`` rows stacked in ``images``.  A training forward of a
        dynamic mode with noise enabled perturbs the assignments, with noise
        drawn here from ``rng``."""
        cfg = self.cfg
        layout = cfg.layout
        b = images.shape[0]
        d = cfg.embed_dim
        n, m = cfg.num_group_tokens, cfg.num_patches
        noise = [None] * cfg.depth
        if cfg.mode.dynamic and train and cfg.gumbel.noise_enabled:
            if rng is None:
                raise ContractError("forward: Gumbel noise needs the caller's generator")
            # rng.random fills in order: each batch's draws for every block,
            # one batch after the other, are what separate forwards drew
            noise = np.concatenate([sample_gumbel(rng, (cfg.depth, rows, m, n))
                                    for rows in sizes], axis=1)

        x = self._embed(self.patchify(np.asarray(images, dtype=np.float64)))

        assignments: list[np.ndarray] = []

        def dynamic_mask(i: int):
            def mask(q: np.ndarray, k: np.ndarray) -> np.ndarray:
                hard = self._layer_assignment(q, k, noise[i])
                assignments.append(hard)
                return mode_masks(cfg.mode, n, m, hard)
            return mask

        # the last block computes only the rows the head reads; its keys and
        # values still cover every token
        head = layout.head_rows
        for i, blk in enumerate(self.blocks):
            mask = dynamic_mask(i) if cfg.mode.dynamic else self._static_mask
            try:                                 # one place names the block
                x = masked_attention(x, blk["attn"], cfg.heads, mask,
                                     head if i == cfg.depth - 1 else slice(None),
                                     prenorm=(blk["ln1_g"], blk["ln1_b"]))
            except (NumericError, DegenerateMaskError) as e:
                raise type(e)(f"block {i}: {e}") from e
            x = mlp_branch(x, blk["ln2_g"], blk["ln2_b"], blk["mlp_w1"], blk["mlp_b1"],
                           blk["mlp_w2"], blk["mlp_b2"])
        x = T.layer_norm(x, self.ln_f_g, self.ln_f_b)        # [B, head rows, d]

        if cfg.mode.has_group_tokens:
            fused, weights = fusion_head(x, self.fusion_query, n)
        else:
            fused = T.reshape(T.narrow(x, 1, 0, 1), (b, d))  # class token
            weights = np.ones((b, 1))
        return fused, Tensor(weights), assignments

    def _embed(self, patches: np.ndarray) -> Tensor:
        """The [B, T, d] token sequence of [B, M, p*p*C] ``patches`` as one
        node: class and group tokens, then the patch projections plus the
        position embedding.

        The node keeps only the patches.  Output and gradients are
        bit-identical to the composition ``linear``, ``add``,
        ``broadcast_to`` per token kind and ``concat``
        (``tests/helpers.py::unfused_embed``).
        """
        layout = self.cfg.layout
        gs, ps = layout.group_start, layout.patch_start
        parts = [(token, rows) for token, rows in ((self.cls_token, slice(0, gs)),
                                                   (self.group_tokens, slice(gs, ps)))
                 if token is not None]
        x = np.empty((patches.shape[0], layout.total, self.cfg.embed_dim))
        for token, rows in parts:
            x[:, rows] = token.data
        np.add(T._affine(patches, self.patch_w, self.patch_b, "patch embedding"),
               self.pos_embed.data, out=x[:, ps:])

        def backward(g):
            # the concat's backward hands each part a contiguous copy
            gp = np.ascontiguousarray(g[:, ps:])
            _, gw, gb = T._affine_grads(patches, self.patch_w, self.patch_b, gp, False)
            return (gw, gb, T._reduce_to(gp, self.pos_embed.shape),
                    *(T._reduce_to(np.ascontiguousarray(g[:, rows]), token.shape)
                      for token, rows in parts))

        return T.custom_op(x, (self.patch_w, self.patch_b, self.pos_embed,
                                *(token for token, _ in parts)), backward)

    # -- complexity ---------------------------------------------------------

    def flops_estimate(self, batch: int = 1) -> float:
        """Analytic multiply-add count for one forward pass, covering exactly
        the dense matmuls the forward performs (2*m*n*k per product)."""
        cfg = self.cfg
        d = cfg.embed_dim
        t = cfg.layout.total
        m = cfg.num_patches
        p2c = cfg.patch_size ** 2 * cfg.in_channels
        flops = 2.0 * batch * m * p2c * d                      # patch embedding

        def block(rows: int) -> float:                         # rows: query rows
            return (3 * 2.0 * batch * t * d * d                # q, k, v on all
                    + 2 * 2.0 * batch * rows * t * d           # scores, probs @ v
                    + 2.0 * batch * rows * d * d               # output projection
                    + 2 * 2.0 * batch * rows * d * cfg.mlp_ratio * d)  # mlp

        head = cfg.layout.head_rows
        flops += (cfg.depth - 1) * block(t) + block(head.stop - head.start)
        if cfg.mode.has_group_tokens:
            flops += 2.0 * batch * cfg.num_group_tokens * d    # fusion scores
        flops += 2.0 * batch * d * cfg.num_classes             # classifier
        return flops
