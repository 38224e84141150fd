"""Shared numeric oracles for the test suite."""

import threading

import numpy as np

import samb.tensor as T
from samb.alignment import domain_loss, grl
from samb.attention import GumbelConfig, _attend, gumbel_assign, masked_attention, mode_masks
from samb.model import ForwardResult


_RUN_LANES = T.run_lanes


def use_lanes(monkeypatch, count: int) -> None:
    """Make ``T.run_lanes`` see ``count`` usable CPUs.  With two, lane 0 also
    waits for lane 1 to start its first item before running its own, so that
    the lanes overlap however small the items are."""
    monkeypatch.setattr(T, "_usable_cpus", lambda: count)
    monkeypatch.setattr(T, "run_lanes", _RUN_LANES if count < 2 else _both_lanes)


def _both_lanes(fn, n, reverse=False):
    started = threading.Event()

    def item(lane, i):
        if lane == 1:
            started.set()
        elif n > 1 and not started.wait(timeout=10):     # one item: lane 0 alone
            raise RuntimeError("lane 1 took no item within 10 s")
        fn(lane, i)

    _RUN_LANES(item, n, reverse)


def finite_diff_grad(f, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of one array."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        fp = f(x)
        flat[i] = orig - step
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * step)
    return g


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-12)
    return np.abs(a - b).max(initial=0.0) / denom


def check_grad(build_loss, param: T.Tensor, step: float = 1e-5) -> float:
    """Compare tape gradients of ``param`` with central differences.

    ``build_loss`` must rebuild the whole graph from current parameter data
    and return a scalar Tensor.
    """
    T.clear_tape()
    param.zero_grad()
    loss = build_loss()
    T.backward(loss)
    analytic = param.grad.copy() if param.grad is not None else np.zeros_like(param.data)

    def f(x):
        T.clear_tape()
        return build_loss().item()

    numeric = finite_diff_grad(f, param.data, step)
    T.clear_tape()
    return rel_err(analytic, numeric)


def dense_attention_oracle(x: np.ndarray, w, n_heads: int, mask) -> np.ndarray:
    """Plain-numpy multi-head attention materializing the full score matrix
    with explicit -inf entries.  ``w`` is an AttentionWeights; ``x`` is
    [B, T, d]; ``mask`` is [T, T] or [B, T, T] additive."""
    b, t, d = x.shape
    dh = d // n_heads

    def proj(wm, bm):
        y = x @ wm.data + bm.data
        return y.reshape(b, t, n_heads, dh).transpose(0, 2, 1, 3)

    q, k, v = proj(w.wq, w.bq), proj(w.wk, w.bk), proj(w.wv, w.bv)
    out = np.empty((b, n_heads, t, dh))
    for bi in range(b):
        m2 = mask if mask.ndim == 2 else mask[bi]
        for h in range(n_heads):
            scores = q[bi, h] @ k[bi, h].T / np.sqrt(dh) + m2
            probs = np.zeros_like(scores)
            for r in range(t):
                row = scores[r]
                mx = row.max()
                e = np.where(np.isneginf(row), 0.0, np.exp(row - mx))
                probs[r] = e / e.sum()
            out[bi, h] = probs @ v[bi, h]
    merged = out.transpose(0, 2, 1, 3).reshape(b, t, d)
    return merged @ w.wo.data + w.bo.data


def unfused_attention(tokens, w, n_heads: int, mask):
    """``masked_attention`` as a composition of primitive tape ops: head
    splits, k^T copy, scale, mask add, softmax, probs @ v and merge, each
    its own node.  The fused op must match it bit for bit."""
    b, t, d = tokens.shape
    dh = d // n_heads

    def split_heads(y):
        return T.transpose(T.reshape(y, (b, t, n_heads, dh)), (0, 2, 1, 3))

    q = split_heads(tokens @ w.wq + w.bq)
    k = split_heads(tokens @ w.wk + w.bk)
    v = split_heads(tokens @ w.wv + w.bv)
    scores = (q @ T.transpose(k, (0, 1, 3, 2))) * (1.0 / np.sqrt(dh))
    scores = scores + T.Tensor(np.asarray(mask).reshape(-1, 1, t, t))
    probs = T.softmax(scores, axis=-1)
    out = T.reshape(T.transpose(probs @ v, (0, 2, 1, 3)), (b, t, d))
    return out @ w.wo + w.bo


def unfused_masked_attention(tokens, w, n_heads: int, mask, rows: slice = slice(None)):
    """``masked_attention`` as the nodes it replaces: a ``linear`` each for
    q, k and v, a ``narrow`` of q to ``rows``, the chunked kernel as one node
    on q, k and v, and the output ``linear``.  The single node must match
    it bit for bit."""
    b, t, _ = tokens.shape
    start, stop, _ = rows.indices(t)
    q = T.linear(tokens, w.wq, w.bq)
    k = T.linear(tokens, w.wk, w.bk)
    v = T.linear(tokens, w.wv, w.bv)
    mask = np.asarray(mask(q.data, k.data) if callable(mask) else mask)
    mask = np.broadcast_to(mask.reshape(-1, 1, t, t)[..., start:stop, :],
                           (b, 1, stop - start, t))
    if stop - start < t:
        q = T.narrow(q, 1, start, stop - start)
    out, backward = _attend(q.data, k.data, v.data, n_heads, mask)
    return T.linear(T.custom_op(out, (q, k, v), backward), w.wo, w.bo)


def unfused_attention_branch(x, gamma, beta, w, n_heads: int, mask, rows: slice = slice(None)):
    """The pre-norm attention branch, ``masked_attention`` with ``prenorm``,
    as the nodes it replaces: ``layer_norm``, ``masked_attention`` on the
    query ``rows``, a ``narrow`` of ``x`` to those rows (unless they are all)
    and the residual ``add``."""
    t = x.shape[1]
    start, stop, _ = rows.indices(t)
    a = masked_attention(T.layer_norm(x, gamma, beta), w, n_heads, mask, rows)
    if stop - start < t:
        x = T.narrow(x, 1, start, stop - start)
    return x + a


def unfused_mlp_branch(x, gamma, beta, w1, b1, w2, b2):
    """``samb.model.mlp_branch`` as the nodes it replaces: ``layer_norm``,
    ``mlp`` and the residual ``add``."""
    return x + T.mlp(T.layer_norm(x, gamma, beta), w1, b1, w2, b2)


def closure_arrays(fn) -> list:
    """Every numpy array reachable from ``fn``'s closure, through nested
    closures, lists and tuples."""
    seen, arrays, todo = set(), [], [fn]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
        elif callable(obj) and getattr(obj, "__closure__", None):
            todo += [cell.cell_contents for cell in obj.__closure__]
        elif isinstance(obj, (list, tuple)):
            todo += list(obj)
    return arrays


def unfused_embed(model, patches: np.ndarray):
    """``VitSamb._embed`` as the nodes it replaces: the patch ``linear``, the
    position-embedding ``add``, a ``broadcast_to`` per token kind and the
    ``concat``."""
    b = patches.shape[0]
    d = model.cfg.embed_dim
    x = T.linear(T.Tensor(patches), model.patch_w, model.patch_b) + model.pos_embed
    parts = []
    if model.cls_token is not None:
        parts.append(T.broadcast_to(model.cls_token, (b, 1, d)))
    if model.group_tokens is not None:
        parts.append(T.broadcast_to(model.group_tokens, (b, model.cfg.num_group_tokens, d)))
    return T.concat(parts + [x], axis=1)


def unfused_fusion_head(x, query, n: int):
    """``samb.model.fusion_head`` as the eight nodes it replaces: ``narrow``,
    score ``matmul``, ``reshape``, ``scale``, ``softmax``, ``reshape``,
    ``mul`` and ``sum_axis``.  Returns (fused, weights), both on the tape."""
    b, _, d = x.shape
    xg = T.narrow(x, 1, 0, n)
    scores = T.reshape(xg @ query, (b, n)) * (1.0 / np.sqrt(d))
    weights = T.softmax(scores, axis=-1)
    return T.sum_axis(T.reshape(weights, (b, n, 1)) * xg, axis=1), weights


def unfused_layer_norm(x, gamma, beta, eps: float = 1e-6):
    """``T.layer_norm`` as it was before it ran in place: ``mean``,
    ``sqrt`` and the affine map as plain numpy expressions, each a new
    array.  The in-place op must match it bit for bit."""
    d = x.shape[-1]
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv

    def backward(g):
        ggamma = (g * xhat).reshape(-1, d).sum(axis=0)
        gbeta = g.reshape(-1, d).sum(axis=0)
        gx_hat = g * gamma.data
        gx = inv * (gx_hat
                    - gx_hat.mean(axis=-1, keepdims=True)
                    - xhat * (gx_hat * xhat).mean(axis=-1, keepdims=True))
        return gx, ggamma, gbeta

    return T.custom_op(gamma.data * xhat + beta.data, (x, gamma, beta), backward)


def unfused_mlp(x, w1, b1, w2, b2):
    """``T.mlp`` as its three nodes: ``linear``, ``gelu``, ``linear``."""
    return T.linear(T.gelu(T.linear(x, w1, b1)), w2, b2)


def unpruned_forward(model, images, train: bool = False, rng=None):
    """``VitSamb.forward`` with every block computing every token row, as it
    did before the last block was pruned to the rows the head reads, with
    the unfused embedding, attention, layer norm, MLP and fusion head, and
    with each Gumbel assignment computed
    from raw numpy projections of every row instead of the attention's own.
    The pruned forward must match it bit for bit at desk scale."""
    cfg = model.cfg
    layout = cfg.layout
    b = images.shape[0]
    d = cfg.embed_dim
    n, m = cfg.num_group_tokens, cfg.num_patches

    x = unfused_embed(model, model.patchify(np.asarray(images, dtype=np.float64)))

    static_mask = mode_masks(cfg.mode, n, m) if not cfg.mode.dynamic else None
    assignments = []
    for blk in model.blocks:
        h = unfused_layer_norm(x, blk["ln1_g"], blk["ln1_b"])
        if cfg.mode.dynamic:
            attn = blk["attn"]
            q = np.matmul(h.data, attn.wq.data) + attn.bq.data
            k = np.matmul(h.data, attn.wk.data) + attn.bk.data
            kg = k[:, layout.group_start:layout.patch_start]
            logits = np.matmul(q[:, layout.patch_start:], np.swapaxes(kg, -1, -2)) / np.sqrt(d)
            gcfg = cfg.gumbel if train else GumbelConfig(noise_enabled=False)
            assignment = gumbel_assign(T.Tensor(logits), gcfg, rng)
            assignments.append(assignment.hard)
            mask = mode_masks(cfg.mode, n, m, assignment.hard)
        else:
            mask = static_mask
        x = x + unfused_masked_attention(h, blk["attn"], cfg.heads, mask)
        h = unfused_layer_norm(x, blk["ln2_g"], blk["ln2_b"])
        x = x + unfused_mlp(h, blk["mlp_w1"], blk["mlp_b1"], blk["mlp_w2"], blk["mlp_b2"])
    x = unfused_layer_norm(x, model.ln_f_g, model.ln_f_b)

    if cfg.mode.has_group_tokens:
        x = T.narrow(x, 1, cfg.layout.group_start, n)
        fused, weights = unfused_fusion_head(x, model.fusion_query, n)
    else:
        fused = T.reshape(T.narrow(x, 1, 0, 1), (b, d))
        weights = T.Tensor(np.ones((b, 1)))
    logits = T.linear(fused, model.head_w, model.head_b)
    return ForwardResult(logits=logits, feature=fused,
                         fusion_weights=weights, assignments=assignments)


def two_forward_step(trainer, kind: str, lam: float):
    """``Trainer._step`` as it was with one training forward per domain:
    the source batch's, then the target batch's, each drawing its own
    Gumbel noise from the trainer's generator.  Leaves the gradients on the
    parameters, takes no SGD step and returns (l_cls, l_d).  The paired
    forward must match it bit for bit."""
    T.clear_tape()
    for p in trainer._all_params():
        p.zero_grad()
    sb, _ = next(trainer._src_iter)
    tb, first = next(trainer._tgt_iter)
    if kind in ("pst", "joint") and (first or trainer.pseudo_labels is None):
        trainer.refresh_pseudo_labels()
    out_s = trainer.model.forward(sb.images, train=True, rng=trainer.gumbel_rng)
    out_t = trainer.model.forward(tb.images, train=True, rng=trainer.gumbel_rng)
    total = T.cross_entropy(out_s.logits, sb.labels)
    l_cls = total.item()
    if kind in ("pst", "joint"):
        tgt_cls = T.cross_entropy(out_t.logits, trainer.pseudo_labels[tb.sample_ids])
        l_cls += tgt_cls.item()
        total = total + tgt_cls
    l_d = 0.0
    if kind in ("ada", "joint"):
        ld = domain_loss(grl(out_s.feature, lam), grl(out_t.feature, lam), trainer.disc)
        l_d = ld.item()
        total = total + ld
    T.backward(total)
    return l_cls, l_d
