"""Dense f64 tensors with reverse-mode automatic differentiation.

A define-by-run gradient tape: every differentiable operation appends one
node to the ambient tape, in execution order, so the node list is
topologically sorted by construction.  ``backward`` walks it once in
reverse; the gradients it leaves pending are the leaves'.  The tape is the
graph's only owner (a tensor holds no reference to the node that produced
it), so ``clear_tape`` frees the graph at once.  Training clears it at the
start of each step; inference paths run under ``no_grad`` and record
nothing.

Everything is float64 and row-major contiguous.  -inf is a legal tensor
value; it flows through ``softmax`` as exact zero probability.

Wide kernels share their work between two lanes (``run_lanes``): the
calling thread and one helper thread that runs numpy and scipy only, which
release the interpreter lock.  Lane ``l`` runs every second item from ``l``
on, a fixed stride, so which lane runs an item never depends on timing.
This module is the package's one owner of process-wide policy: the
threads, and glibc's heap policy (``_keep_freed_memory``).  The GELU's
``erf`` is scipy's compiled ufunc, loaded without ``scipy.special``
(``_load_erf``).
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import contextvars
import ctypes
import importlib.machinery
import importlib.util
import math
import os
import struct
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ContractError, DegenerateMaskError, DimensionError, FormatError

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)
_LN_EPS = 1e-6              # added to the layer-norm variance

# Work is cut into pieces of at most this many float64 elements (1 MiB), so
# that one piece stays in a 2 MiB L2 cache; an elementwise op over fewer
# elements is not worth a handoff to the second lane.
_CHUNK_ELEMS = 1 << 17


# ---------------------------------------------------------------------------
# heap policy

def _keep_freed_memory() -> None:
    """Have glibc keep freed blocks for reuse instead of returning them.

    A 64 px training step frees about 25 MB of tape at ``clear_tape``.  By
    default glibc unmaps blocks that large or, once its dynamic threshold has
    risen, trims them off the heap top (and the helper lane's arena), so the
    next step faults every page in again.  In a 100-step 64 px samb/ada run
    at B = 8 (one BLAS thread, 2-vCPU x86_64 guest) that was 4,900-5,000
    minor faults per step and 1.3-1.7 s of system time per run; with both
    settings, 0-4 faults per step, 0.09-0.15 s, and a step p50 of 56-62 ms
    against 66-77 ms.  Both are needed: the trim threshold alone left
    1,600-2,100 faults per step and the mmap threshold alone 3,400-6,300.
    Numerics do not change.  Without a ``mallopt`` symbol this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)               # M_MMAP_THRESHOLD: 32 MiB, glibc's maximum
    mallopt(-1, 256 << 20)              # M_TRIM_THRESHOLD: 256 MiB


_keep_freed_memory()


def _load_erf() -> np.ufunc:
    """scipy's ``erf`` ufunc, taken from its compiled module alone.

    ``scipy.special``'s ``__init__`` imports an array-API shim that pulls in
    ``numpy.f2py``, ``numpy.testing``, ``numpy.ma`` and more: about 350 of
    the 550 ms of ``import samb.cli`` and 20 MB of resident memory (2-vCPU
    x86_64 guest), for the one ufunc the GELU uses.  Loading
    ``scipy/special/_special_ufuncs`` by itself gives the very object
    ``scipy.special.erf`` (scipy 1.17), so every bit is the same;
    ``find_spec("scipy")`` imports nothing.  Where that module or its
    ``erf`` is missing, this falls back to ``scipy.special``.
    """
    try:
        scipy = importlib.util.find_spec("scipy")
        finder = importlib.machinery.FileFinder(
            os.path.join(scipy.submodule_search_locations[0], "special"),
            (importlib.machinery.ExtensionFileLoader,
             importlib.machinery.EXTENSION_SUFFIXES))
        spec = finder.find_spec("scipy.special._special_ufuncs")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.erf
    except (AttributeError, ImportError, TypeError):
        from scipy.special import erf
        return erf


erf = _load_erf()


# ---------------------------------------------------------------------------
# two lanes

_LANE1: list[Optional[concurrent.futures.ThreadPoolExecutor]] = [None]
if hasattr(os, "register_at_fork"):
    # a forked child has none of its parent's threads: it makes its own helper
    os.register_at_fork(after_in_child=lambda: _LANE1.__setitem__(0, None))


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:                      # no affinity on this platform
        return os.cpu_count() or 1


def run_lanes(fn: Callable[[int, int], None], n: int, reverse: bool = False) -> None:
    """Call ``fn(lane, i)`` once for every ``i`` in ``range(n)``.

    Lane 0 is the calling thread; lane 1 is one helper thread, made on first
    use and reused.  With at least 2 items and 2 usable CPUs, lane ``l``
    runs items ``l, l+2, ...``; otherwise lane 0 runs them all.  Each lane
    runs its items in increasing order, or decreasing with ``reverse``, so a
    reversed call starts each lane on the last item it ran in a forward one.
    ``fn`` must run numpy only when lane 1 calls it: tape, spans and the FLOP
    count belong to the calling thread.  Lane 1 runs in a copy of the
    caller's context, so the caller's ``np.errstate`` holds there too.
    Returns once both lanes are done; an exception raised in either lane
    then reaches the caller.
    """
    lanes = 2 if n >= 2 and _usable_cpus() >= 2 else 1

    def run(lane: int) -> None:
        items = range(lane, n, lanes)
        for i in reversed(items) if reverse else items:
            fn(lane, i)

    if lanes == 1:
        return run(0)
    if _LANE1[0] is None:
        _LANE1[0] = concurrent.futures.ThreadPoolExecutor(1, thread_name_prefix="samb-lane")
    future = _LANE1[0].submit(contextvars.copy_context().run, run, 1)
    try:
        run(0)
    finally:
        error = future.exception()              # waits for lane 1
    if error is not None:
        raise error


class TapeNode:
    __slots__ = ("inputs", "output", "backward_fn", "split")

    def __init__(self, inputs, output, backward_fn, split):
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn
        self.split = split                      # see ``batch_split``


class GradientTape:
    """Ordered record of operations; inputs of a node always precede it."""

    def __init__(self):
        self.nodes: list[TapeNode] = []

    def clear(self):
        self.nodes.clear()


_TAPE = GradientTape()
_RECORDING = [True]
# rows of the first of two stacked batches: while recording under
# ``batch_split``, and while the backward of a node recorded there runs
_SPLIT: list[Optional[int]] = [None]


def tape() -> GradientTape:
    return _TAPE


def clear_tape():
    _TAPE.clear()


@contextlib.contextmanager
def no_grad():
    """Record no tape node inside the block; outputs then require no grad.

    The previous state comes back on exit, also after an exception, so
    blocks nest.
    """
    previous = _RECORDING[0]
    _RECORDING[0] = False
    try:
        yield
    finally:
        _RECORDING[0] = previous


@contextlib.contextmanager
def batch_split(rows: int):
    """Record the nodes made inside the ``with`` block as over two batches
    stacked on axis 0, the first ``rows`` rows one batch and the rest the
    other.

    Wherever their backward sums over that axis (``_reduce_to`` and the
    layer norm's affine gradients), it sums each batch's rows on its own
    and adds the two sums: the bits that two separate passes give, whose
    gradients the walk adds.  A sum over all rows at once rounds otherwise.
    A product of 2-D operands sums its rows inside one BLAS call, which no
    split reaches: keep such ops out of the ``with`` block.
    """
    previous = _SPLIT[0]
    _SPLIT[0] = rows
    try:
        yield
    finally:
        _SPLIT[0] = previous


class Tensor:
    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64, order="C")
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(()))

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # operator sugar
    def __add__(self, other):
        return add(self, _wrap(other))

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, other)
        return mul(self, other)

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _record(output: Tensor, inputs: Sequence[Tensor],
            backward_fn: Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]):
    """Append a tape node producing ``output`` if any input needs gradients,
    unless inside ``no_grad``."""
    if _RECORDING[0] and any(t.requires_grad for t in inputs):
        output.requires_grad = True
        _TAPE.nodes.append(TapeNode(tuple(inputs), output, backward_fn, _SPLIT[0]))
    return output


def _by_batch(reduce: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """``reduce(x)`` for a reduction over axis 0 (and maybe more); under a
    ``batch_split``, the sum of ``reduce`` over each batch's rows."""
    rows = _SPLIT[0]
    return reduce(x) if rows is None else reduce(x[:rows]) + reduce(x[rows:])


def _sum_to(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` over axes that were broadcast from ``shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, dim in enumerate(shape):
        if dim == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad.reshape(shape)


def _reduce_to(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """``_sum_to``; one that sums leading axes does so per batch under a
    ``batch_split``."""
    if grad.ndim > len(shape):
        return _by_batch(lambda g: _sum_to(g, shape), grad)
    return _sum_to(grad, shape)


# ---------------------------------------------------------------------------
# arithmetic

def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = Tensor(a.data + b.data)
    except ValueError:
        raise DimensionError(f"add: shapes {a.shape} and {b.shape} do not broadcast")
    return _record(out, (a, b), lambda g: (_reduce_to(g, a.shape), _reduce_to(g, b.shape)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = Tensor(a.data - b.data)
    except ValueError:
        raise DimensionError(f"sub: shapes {a.shape} and {b.shape} do not broadcast")
    return _record(out, (a, b), lambda g: (_reduce_to(g, a.shape), _reduce_to(-g, b.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = Tensor(a.data * b.data)
    except ValueError:
        raise DimensionError(f"mul: shapes {a.shape} and {b.shape} do not broadcast")
    return _record(out, (a, b), lambda g: (_reduce_to(g * b.data, a.shape),
                                           _reduce_to(g * a.data, b.shape)))


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    out = Tensor(a.data * s)
    return _record(out, (a,), lambda g: (g * s,))


_flop_counter = [0.0]
_flop_counting = [False]


def start_flop_count():
    _flop_counter[0] = 0.0
    _flop_counting[0] = True


def stop_flop_count() -> float:
    _flop_counting[0] = False
    return _flop_counter[0]


def count_matmul_flops(a_shape: tuple, b_shape: tuple) -> None:
    """Add the FLOPs of ``np.matmul`` over arrays of these shapes to the
    count, for products a kernel ran itself (on two lanes) in its place."""
    if _flop_counting[0]:
        batch = math.prod(np.broadcast_shapes(a_shape[:-2], b_shape[:-2]))
        _flop_counter[0] += 2.0 * batch * a_shape[-2] * a_shape[-1] * b_shape[-1]


def counted_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.matmul`` of two arrays of rank >= 2, added to the FLOP count.

    Records no tape node; every forward product of the package goes
    through here or ``count_matmul_flops``, so the count covers ``matmul``,
    ``linear`` and fused ops.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul requires rank >= 2, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul: inner dims disagree, {a.shape} x {b.shape}")
    try:
        out = np.matmul(a, b)
    except ValueError:
        raise DimensionError(f"matmul: batch dims do not broadcast, {a.shape} x {b.shape}")
    count_matmul_flops(a.shape, b.shape)
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(counted_matmul(a.data, b.data))

    def backward(g):
        ga = _reduce_to(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape)
        gb = _reduce_to(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)
        return ga, gb

    return _record(out, (a, b), backward)


def _affine(x: np.ndarray, w: Tensor, b: Tensor, op: str) -> np.ndarray:
    """``x @ w + b`` for [d_in, d_out] ``w`` and [d_out] ``b``."""
    if w.ndim != 2 or b.shape != (w.shape[1],):
        raise DimensionError(f"{op}: weight {w.shape} and bias {b.shape} do not match")
    y = counted_matmul(x, w.data)
    y += b.data
    return y


def _affine_grads(x: np.ndarray, w: Tensor, b: Tensor, g: np.ndarray, need_x: bool):
    """Gradients of ``x @ w + b`` for x (if ``need_x``), w and b; none for
    a weight or bias that does not require one."""
    gx = np.matmul(g, w.data.T) if need_x else None
    gw = (_reduce_to(np.matmul(np.swapaxes(x, -1, -2), g), w.shape)
          if w.requires_grad else None)
    gb = _reduce_to(g, b.shape) if b.requires_grad else None
    return gx, gw, gb


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` as one node, for [..., d_in] ``x``, [d_in, d_out] ``w``
    and [d_out] ``b``.

    Bit-identical to ``matmul`` followed by ``add``; the backward computes
    no gradient for an input that does not require one.
    """
    out = Tensor(_affine(x.data, w, b, "linear"))
    return _record(out, (x, w, b),
                   lambda g: _affine_grads(x.data, w, b, g, x.requires_grad))


def _mlp_forward(x: np.ndarray, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor,
                 op: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(output, hidden pre-activation, its GELU cdf) of
    ``gelu(x @ w1 + b1) @ w2 + b2``; the GELU output is not kept."""
    a = _affine(x, w1, b1, op)
    cdf, h = _gelu_forward(a)
    return _affine(h, w2, b2, op), a, cdf


def _mlp_hidden_grads(a: np.ndarray, cdf: np.ndarray, w2: Tensor, b2: Tensor,
                      g: np.ndarray):
    """Gradients of ``gelu(a) @ w2 + b2`` for the pre-activation ``a``, w2 and
    b2.  The GELU output is recomputed as ``a * cdf``, the bits the forward
    wrote, and freed before the GELU's backward allocates its result."""
    h = np.multiply(a, cdf)
    gh, gw2, gb2 = _affine_grads(h, w2, b2, g, True)
    del h
    return _gelu_backward(a, cdf, gh), gw2, gb2


def mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """``linear(gelu(linear(x, w1, b1)), w2, b2)`` as one node.

    It keeps the hidden pre-activation and its GELU cdf and runs the three
    nodes' numpy operations in their order, so output and gradients are
    bit-identical to the composition.
    """
    out, a, cdf = _mlp_forward(x.data, w1, b1, w2, b2, "mlp")

    def backward(g):
        ga, gw2, gb2 = _mlp_hidden_grads(a, cdf, w2, b2, g)
        gx, gw1, gb1 = _affine_grads(x.data, w1, b1, ga, x.requires_grad)
        return gx, gw1, gb1, gw2, gb2

    return _record(Tensor(out), (x, w1, b1, w2, b2), backward)


# ---------------------------------------------------------------------------
# shape manipulation

def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape))
    return _record(out, (a,), lambda g: (g.reshape(a.shape),))


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out = Tensor(a.data.transpose(axes))
    return _record(out, (a,), lambda g: (g.transpose(inv),))


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, splits, axis=axis))

    return _record(out, tuple(tensors), backward)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along ``axis``."""
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    out = Tensor(a.data[idx])

    def backward(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        return (full,)

    return _record(out, (a,), backward)


def broadcast_to(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    out = Tensor(np.broadcast_to(a.data, shape).copy())
    return _record(out, (a,), lambda g: (_reduce_to(g, a.shape),))


# ---------------------------------------------------------------------------
# reductions

def sum_all(a: Tensor) -> Tensor:
    out = Tensor(a.data.sum())
    return _record(out, (a,), lambda g: (np.broadcast_to(g, a.shape).copy(),))


def sum_axis(a: Tensor, axis: int) -> Tensor:
    out = Tensor(a.data.sum(axis=axis))
    return _record(out, (a,), lambda g: (np.broadcast_to(
        np.expand_dims(g, axis), a.shape).copy(),))


def mean_all(a: Tensor) -> Tensor:
    n = a.size
    out = Tensor(a.data.mean())
    return _record(out, (a,), lambda g: (np.broadcast_to(g / n, a.shape).copy(),))


# ---------------------------------------------------------------------------
# nonlinearities

def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    out = Tensor(y)
    return _record(out, (a,), lambda g: (g * (1.0 - y * y),))


def sigmoid(a: Tensor) -> Tensor:
    e = np.exp(-np.abs(a.data))
    y = np.where(a.data >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    out = Tensor(y)
    return _record(out, (a,), lambda g: (g * y * (1.0 - y),))


def _row_halves(x: np.ndarray) -> list:
    """Indices that split ``x`` into two halves along axis 0 for two lanes,
    or ``[...]`` (all of it) below ``_CHUNK_ELEMS`` elements or 2 rows."""
    if x.ndim == 0 or x.shape[0] < 2 or x.size < _CHUNK_ELEMS:
        return [...]
    half = x.shape[0] // 2
    return [slice(0, half), slice(half, None)]


def _gelu_forward(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cdf, x * cdf) of the exact erf GELU, not the tanh approximation.

    The in-place steps round as ``0.5 * (1.0 + erf(x / sqrt 2))`` does, and
    elementwise ops give each element the same bits on either lane.
    """
    cdf, h = np.empty_like(x), np.empty_like(x)
    parts = _row_halves(x)

    def part(lane: int, i: int):
        s = parts[i]
        c = np.multiply(x[s], _INV_SQRT2, out=cdf[s])
        erf(c, out=c)
        c += 1.0
        c *= 0.5
        np.multiply(x[s], c, out=h[s])

    run_lanes(part, len(parts))
    return cdf, h


def _gelu_backward(x: np.ndarray, cdf: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``g * (cdf + x * pdf(x))`` in one new buffer; writes nothing else."""
    gx = np.empty_like(x)
    parts = _row_halves(x)

    def part(lane: int, i: int):
        s = parts[i]
        y = np.multiply(x[s], -0.5, out=gx[s])
        y *= x[s]
        np.exp(y, out=y)
        y *= _INV_SQRT2PI                       # pdf
        y *= x[s]
        y += cdf[s]
        y *= g[s]

    run_lanes(part, len(parts))
    return gx


def gelu(a: Tensor) -> Tensor:
    cdf, y = _gelu_forward(a.data)
    return _record(Tensor(y), (a,), lambda g: (_gelu_backward(a.data, cdf, g),))


def log(a: Tensor) -> Tensor:
    out = Tensor(np.log(a.data))
    return _record(out, (a,), lambda g: (g / a.data,))


def exp(a: Tensor) -> Tensor:
    y = np.exp(a.data)
    out = Tensor(y)
    return _record(out, (a,), lambda g: (g * y,))


def clamp_min(a: Tensor, lo: float) -> Tensor:
    mask = a.data >= lo
    out = Tensor(np.maximum(a.data, lo))
    return _record(out, (a,), lambda g: (g * mask,))


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Max-subtracted softmax; -inf entries map to exactly 0.

    Raises DegenerateMaskError if any row along ``axis`` is entirely -inf.
    """
    x = a.data
    m = np.max(x, axis=axis, keepdims=True)
    if np.any(np.isneginf(m)):
        raise DegenerateMaskError("softmax: a row is fully masked (all -inf)")
    shifted = x - m
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(y)

    def backward(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - dot),)

    return _record(out, (a,), backward)


def _normalize(x: np.ndarray, gamma: Tensor, beta: Tensor,
               op: str) -> tuple[np.ndarray, np.ndarray]:
    """(xhat, inv) of the layer norm of ``x`` over its last axis: the
    normalised input and the [..., 1] reciprocal standard deviation.

    Means are ``np.add.reduce`` then ``/= d``, which is what ``ndarray.mean``
    computes; with the in-place steps the bits are those of the plain
    ``mean``/``sqrt`` expressions.
    """
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise DimensionError(f"{op}: affine params {gamma.shape}/{beta.shape} "
                             f"do not match feature dim {d}")
    mu = np.add.reduce(x, axis=-1, keepdims=True)
    mu /= d
    xhat = x - mu                               # centred, then normalised below
    y = xhat * xhat
    inv = np.add.reduce(y, axis=-1, keepdims=True)
    inv /= d                                    # variance
    inv += _LN_EPS
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    return xhat, inv


def _scale_shift(xhat: np.ndarray, gamma: Tensor, beta: Tensor) -> np.ndarray:
    """The layer norm's output ``gamma * xhat + beta``, in a new array; a
    backward that recomputes it gets the forward's bits."""
    y = np.multiply(gamma.data, xhat)
    y += beta.data
    return y


def _layer_norm_grads(xhat: np.ndarray, inv: np.ndarray, gamma: Tensor, g: np.ndarray):
    """Gradients of ``gamma * xhat + beta`` for the layer norm's input, gamma
    and beta.  The gamma and beta sums run per batch under a
    ``batch_split``; only buffers of its own are written."""
    d = xhat.shape[-1]

    def rows_sum(y: np.ndarray) -> np.ndarray:
        return np.add.reduce(y.reshape(-1, d), axis=0)

    gxhat = g * xhat
    ggamma = _by_batch(rows_sum, gxhat)
    gbeta = _by_batch(rows_sum, g)
    gx = g * gamma.data
    mean = np.add.reduce(gx, axis=-1, keepdims=True)
    mean /= d
    np.multiply(gx, xhat, out=gxhat)
    proj = np.add.reduce(gxhat, axis=-1, keepdims=True)
    proj /= d
    gx -= mean
    np.multiply(xhat, proj, out=gxhat)
    gx -= gxhat
    gx *= inv
    return gx, ggamma, gbeta


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize over the last axis, then affine-transform, as one node that
    keeps ``xhat`` and ``inv``."""
    xhat, inv = _normalize(x.data, gamma, beta, "layer_norm")
    return _record(Tensor(_scale_shift(xhat, gamma, beta)), (x, gamma, beta),
                   lambda g: _layer_norm_grads(xhat, inv, gamma, g))


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-softmax probability of the true class.

    ``labels`` is an int array of shape [B] with entries in [0, C).
    """
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2:
        raise DimensionError(f"cross_entropy expects [B, C] logits, got {logits.shape}")
    b, c = logits.shape
    if labels.shape != (b,):
        raise DimensionError(f"cross_entropy: labels shape {labels.shape} != ({b},)")
    if labels.min() < 0 or labels.max() >= c:
        raise ContractError(f"cross_entropy: label out of range [0, {c})")
    x = logits.data
    m = x.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(x - m).sum(axis=1, keepdims=True))
    logp = x - lse
    out = Tensor(-logp[np.arange(b), labels].mean())

    def backward(g):
        p = np.exp(logp)
        p[np.arange(b), labels] -= 1.0
        return (g * p / b,)

    return _record(out, (logits,), backward)


# ---------------------------------------------------------------------------
# custom differentiable ops used elsewhere in the package

def custom_op(data: np.ndarray, inputs: Sequence[Tensor], backward_fn) -> Tensor:
    """Build a tensor with a caller-supplied backward rule."""
    return _record(Tensor(data), tuple(inputs), backward_fn)


# ---------------------------------------------------------------------------
# backward pass

def backward(loss: Tensor):
    """Populate ``grad`` on every requires_grad leaf reachable from ``loss``.

    A leaf is any tensor no node on the current tape produced, including one
    whose node was cleared: a node pops its output's pending gradient before
    the nodes that made its inputs run, so one reverse walk leaves pending
    only the leaves'.  Repeated calls without ``zero_grad`` accumulate.
    """
    if loss.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    pending = {id(loss): (loss, np.ones_like(loss.data))}    # id -> (tensor, grad)
    previous = _SPLIT[0]
    try:
        for node in reversed(_TAPE.nodes):
            entry = pending.pop(id(node.output), None)
            if entry is None:
                continue
            _SPLIT[0] = node.split
            for inp, gi in zip(node.inputs, node.backward_fn(entry[1])):
                if gi is None or not inp.requires_grad:
                    continue
                key = id(inp)
                pending[key] = (inp, gi if key not in pending else pending[key][1] + gi)
    finally:
        _SPLIT[0] = previous
    for leaf, g in pending.values():
        if leaf.requires_grad:
            leaf.grad = g if leaf.grad is None else leaf.grad + g


# ---------------------------------------------------------------------------
# optimizer

def sgd_step(params: Sequence[Tensor], lr: float, momentum: float = 0.0,
             weight_decay: float = 0.0, velocity: Optional[dict] = None) -> dict:
    """v <- momentum*v + grad + wd*param;  param <- param - lr*v.  ``velocity``
    maps ``id(param)`` to v; it is updated in place and returned."""
    if not 0.0 < lr < np.inf:
        raise ContractError(f"sgd_step: lr must be finite and > 0, got {lr}")
    velocity = {} if velocity is None else velocity
    for p in params:
        if p.grad is None:
            continue
        g = p.grad + weight_decay * p.data
        v = velocity.get(id(p))
        v = g if v is None else momentum * v + g
        velocity[id(p)] = v
        p.data = p.data - lr * v
    return velocity


# ---------------------------------------------------------------------------
# checkpoint format: magic "SAMB", u32 version, then records of
# (u32 name length, name, u32 rank, u32 dims..., f64 payload), little-endian

_CKPT_MAGIC = b"SAMB"
_CKPT_VERSION = 1
_CKPT_MAX_RANK = 32         # numpy 1.x caps array dimensions at 32, numpy 2 at 64


def save_checkpoint(path, named_params: dict[str, Tensor]):
    with open(path, "wb") as f:
        f.write(_CKPT_MAGIC)
        f.write(struct.pack("<I", _CKPT_VERSION))
        for name, t in named_params.items():
            nb = name.encode("utf-8")
            f.write(struct.pack("<I", len(nb)))
            f.write(nb)
            f.write(struct.pack("<I", t.ndim))
            for dim in t.shape:
                f.write(struct.pack("<I", dim))
            f.write(t.data.astype("<f8").tobytes())


def load_checkpoint(path) -> dict[str, Tensor]:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != _CKPT_MAGIC:
        raise FormatError("bad checkpoint magic", 0)
    if len(blob) < 8:
        raise FormatError("truncated checkpoint header", len(blob))
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != _CKPT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}", 4)
    out: dict[str, Tensor] = {}
    off = 8
    while off < len(blob):
        start = off
        if off + 4 > len(blob):
            raise FormatError("truncated record header", off)
        (nlen,) = struct.unpack_from("<I", blob, off)
        off += 4
        if off + nlen > len(blob):
            raise FormatError("truncated record name", off)
        try:
            name = blob[off:off + nlen].decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError("record name is not UTF-8", off) from None
        off += nlen
        if off + 4 > len(blob):
            raise FormatError("truncated record rank", off)
        (rank,) = struct.unpack_from("<I", blob, off)
        if rank > _CKPT_MAX_RANK:
            raise FormatError(f"record rank {rank} exceeds {_CKPT_MAX_RANK}", off)
        off += 4
        if off + 4 * rank > len(blob):
            raise FormatError("truncated record dims", off)
        dims_off = off
        dims = struct.unpack_from(f"<{rank}I", blob, off)
        off += 4 * rank
        count = math.prod(dims)                  # Python ints: no int64 wrap
        nbytes = 8 * count
        if off + nbytes > len(blob):
            raise FormatError(f"record dims {dims} need {nbytes} payload bytes, "
                              f"{len(blob) - off} remain", dims_off)
        if name in out:
            raise FormatError(f"duplicate record {name!r}", start)
        try:
            # numpy also rejects dims whose nonzero product overflows, even
            # beside a zero dim that leaves the payload empty
            data = np.frombuffer(blob, dtype="<f8", count=count, offset=off).reshape(dims)
        except ValueError:
            raise FormatError(f"record dims {dims} do not fit an array", dims_off) from None
        if not np.isfinite(data).all():
            raise FormatError(f"record {name!r} holds a non-finite value", start)
        off += nbytes
        out[name] = Tensor(data.copy())
    return out
