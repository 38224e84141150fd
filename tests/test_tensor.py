import gc
import importlib.machinery
import io
import math
import multiprocessing
import os
import platform
import struct
import subprocess
import sys
import threading
import types
import warnings
import weakref

import numpy as np
import pytest
from scipy.special import erf

import samb.tensor as T
from samb.errors import (ContractError, DegenerateMaskError, DimensionError,
                         FormatError)
from samb.tensor import Tensor

from helpers import check_grad, mlp_node, unfused_layer_norm, unfused_mlp, use_lanes


@pytest.fixture(autouse=True)
def fresh_tape():
    T.clear_tape()
    yield
    T.clear_tape()


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 0.0], [0.0, 1.0]])
        b = Tensor([[3.0, 4.0], [5.0, 6.0]])
        assert np.array_equal((a @ b).data, b.data)

    def test_inner_product(self):
        out = Tensor([[1.0, 2.0]]) @ Tensor([[3.0], [4.0]])
        assert out.data.tolist() == [[11.0]]

    def test_shape_mismatch_names_both(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            Tensor(np.zeros((2, 3))) @ Tensor(np.zeros((2, 3)))

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        b = Tensor(rng.standard_normal((5, 3)))
        err = check_grad(lambda: T.sum_all(a @ b), a)
        assert err < 1e-6

    def test_batched_gradient(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        assert check_grad(lambda: T.sum_all(T.tanh(a @ w)), a) < 1e-6
        assert check_grad(lambda: T.sum_all(T.tanh(a @ w)), w) < 1e-6


class TestLinear:
    def test_bit_identical_to_matmul_plus_add(self):
        rng = np.random.default_rng(15)
        x = Tensor(rng.standard_normal((3, 5, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
        b = Tensor(rng.standard_normal(6), requires_grad=True)
        c = Tensor(rng.standard_normal((3, 5, 6)))
        results = []
        for build in (lambda: T.linear(x, w, b), lambda: x @ w + b):
            T.clear_tape()
            for p in (x, w, b):
                p.zero_grad()
            out = build()
            T.backward(T.sum_all(out * c))
            results.append([out.data, x.grad, w.grad, b.grad])
        for fused, unfused in zip(*results):
            assert np.array_equal(fused, unfused)

    def test_no_gradient_computed_for_constant_input(self):
        rng = np.random.default_rng(16)
        x = Tensor(rng.standard_normal((5, 4)))
        w = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        b = Tensor(np.zeros(2))
        T.linear(x, w, b)
        gx, gw, gb = T.tape().nodes[-1].backward_fn(np.ones((5, 2)))
        assert gx is None and gb is None
        assert np.array_equal(gw, x.data.T @ np.ones((5, 2)))

    def test_bias_shape_mismatch(self):
        with pytest.raises(DimensionError):
            T.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 4))),
                     Tensor(np.zeros(3)))


class TestSoftmax:
    def test_symmetry(self):
        out = T.softmax(Tensor([0.0, 0.0]))
        assert np.allclose(out.data, [0.5, 0.5], atol=1e-15)

    def test_masked_entry_exact_zero(self):
        out = T.softmax(Tensor([5.0, -np.inf]))
        assert out.data[0] == 1.0
        assert out.data[1] == 0.0

    def test_reference_values(self):
        # independent scalar evaluation with math.exp
        x = [1.0, 2.0, 3.0]
        z = sum(math.exp(v) for v in x)
        expected = [math.exp(v) / z for v in x]
        out = T.softmax(Tensor(x))
        assert np.abs(out.data - expected).max() < 1e-12

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        out = T.softmax(Tensor(rng.standard_normal((5, 7))), axis=-1)
        assert np.abs(out.data.sum(axis=-1) - 1.0).max() < 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 6))
        a = T.softmax(Tensor(x), axis=-1).data
        b = T.softmax(Tensor(x + 123.456), axis=-1).data
        assert np.abs(a - b).max() < 1e-12

    def test_fully_masked_row_raises(self):
        with pytest.raises(DegenerateMaskError):
            T.softmax(Tensor([[-np.inf, -np.inf], [0.0, 1.0]]), axis=-1)

    def test_gradient(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
        c = Tensor(rng.standard_normal((3, 5)))
        err = check_grad(lambda: T.sum_all(T.softmax(x, axis=-1) * c), x)
        assert err < 1e-6


class TestCrossEntropy:
    def test_huge_margin_limit(self):
        logits = Tensor([[100.0, 0.0, 0.0]])
        loss = T.cross_entropy(logits, [0])
        assert loss.item() < 1e-10

    def test_uniform_logits(self):
        loss = T.cross_entropy(Tensor(np.zeros((2, 4))), [1, 3])
        assert abs(loss.item() - math.log(4)) < 1e-12

    def test_scalar_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 5))
        labels = [4, 0, 2]
        expected = 0.0
        for row, lab in zip(x, labels):
            z = sum(math.exp(v) for v in row)
            expected -= math.log(math.exp(row[lab]) / z)
        expected /= 3
        loss = T.cross_entropy(Tensor(x), labels)
        assert abs(loss.item() - expected) < 1e-10

    def test_out_of_range_label(self):
        for labels in ([0, 3], [-1, 0]):
            with pytest.raises(ContractError, match=r"label out of range \[0, 3\)"):
                T.cross_entropy(Tensor(np.zeros((2, 3))), labels)

    def test_gradient(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
        assert check_grad(lambda: T.cross_entropy(x, [1, 5, 0, 3]), x) < 1e-6


class TestElementwise:
    def test_layer_norm_constant_vector(self):
        x = Tensor(np.full((3, 8), 2.5))
        out = T.layer_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8)))
        assert np.abs(out.data).max() < 1e-3  # eps bounds the blow-up at zero variance

    def test_gelu_zero(self):
        assert T.gelu(Tensor([0.0])).data[0] == 0.0

    def test_gelu_reference(self):
        # erf formulation at a few points
        for v in (-1.5, -0.3, 0.7, 2.0):
            expected = 0.5 * v * (1 + math.erf(v / math.sqrt(2)))
            assert abs(T.gelu(Tensor([v])).data[0] - expected) < 1e-14

    def test_layer_norm_gradient(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((2, 3, 6)), requires_grad=True)
        g = Tensor(rng.standard_normal(6), requires_grad=True)
        b = Tensor(rng.standard_normal(6), requires_grad=True)
        c = Tensor(rng.standard_normal((2, 3, 6)))

        def loss():
            return T.sum_all(T.layer_norm(x, g, b) * c)

        assert check_grad(loss, x) < 1e-5
        assert check_grad(loss, g) < 1e-5
        assert check_grad(loss, b) < 1e-5

    def test_broadcast_add_gradient(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal(4), requires_grad=True)
        assert check_grad(lambda: T.sum_all(T.gelu(x + b)), b) < 1e-6

    def test_add_shape_mismatch(self):
        with pytest.raises(DimensionError):
            Tensor(np.zeros(3)) + Tensor(np.zeros(4))

    @pytest.mark.parametrize("op", [T.tanh, T.sigmoid, T.gelu, T.exp])
    @pytest.mark.parametrize("shape", [(3,), (2, 4), (2, 3, 2)])
    def test_unary_gradients_random_shapes(self, op, shape):
        rng = np.random.default_rng(hash((op.__name__, shape)) % 2**32)
        x = Tensor(rng.standard_normal(shape), requires_grad=True)
        c = Tensor(rng.standard_normal(shape))
        assert check_grad(lambda: T.sum_all(op(x) * c), x, step=1e-5) < 1e-4


FUSED_SHAPES = [(16, 20, 16), (8, 260, 16), (16, 16)]


def leaf(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def output_and_grads(op, inputs, c, backwards=1):
    """The op's output and every input gradient after ``backwards`` backward
    passes of ``sum(op(*inputs) * c)``."""
    T.clear_tape()
    for t in inputs:
        t.zero_grad()
    out = op(*inputs)
    loss = T.sum_all(out * c)
    for _ in range(backwards):
        T.backward(loss)
    return [out.data] + [t.grad for t in inputs]


class TestFusedLayerNormAndMlp:
    """The in-place layer norm and the MLP body that ``mlp_branch`` and the
    discriminator share (``mlp_node``) against the expressions and nodes
    they replace, bit for bit."""

    @staticmethod
    def layer_norm_inputs(shape):
        rng = np.random.default_rng(sum(shape))
        d = shape[-1]
        return [leaf(rng, *shape), leaf(rng, d), leaf(rng, d)], Tensor(rng.standard_normal(shape))

    @staticmethod
    def mlp_inputs(shape):
        rng = np.random.default_rng(sum(shape) + 1)
        d = shape[-1]
        inputs = [leaf(rng, *shape), leaf(rng, d, 4 * d), leaf(rng, 4 * d),
                  leaf(rng, 4 * d, d), leaf(rng, d)]
        return inputs, Tensor(rng.standard_normal(shape))

    @pytest.mark.parametrize("shape", FUSED_SHAPES)
    def test_layer_norm_bit_identical_to_unfused(self, shape):
        inputs, c = self.layer_norm_inputs(shape)
        fused = output_and_grads(T.layer_norm, inputs, c)
        reference = output_and_grads(unfused_layer_norm, inputs, c)
        for a, b in zip(fused, reference):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("shape", FUSED_SHAPES)
    def test_mlp_bit_identical_to_three_nodes(self, shape):
        inputs, c = self.mlp_inputs(shape)
        fused = output_and_grads(mlp_node, inputs, c)
        assert len(T.tape().nodes) == 3          # mlp, mul and sum_all
        reference = output_and_grads(unfused_mlp, inputs, c)
        for a, b in zip(fused, reference):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_mlp_in_sequence_pieces_matches_three_nodes(self, monkeypatch, lanes):
        # the 64 px block-0 MLP of a paired step: its backward runs in pieces
        # of 3 sequences, whose w2 products are those of the whole array
        use_lanes(monkeypatch, lanes)
        assert len(T._sequence_pieces(np.empty((16, 260, 64)))) == 6
        inputs, c = self.mlp_inputs((16, 260, 16))
        fused = output_and_grads(mlp_node, inputs, c)
        reference = output_and_grads(unfused_mlp, inputs, c)
        for a, b in zip(fused, reference):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("op", ["layer_norm", "mlp"])
    def test_second_backward_doubles_every_gradient(self, op):
        # a backward that wrote into what its node saved would change the
        # second pass
        inputs, c = getattr(self, f"{op}_inputs")((4, 5, 8))
        node = T.layer_norm if op == "layer_norm" else mlp_node
        once = output_and_grads(node, inputs, c)[1:]
        twice = output_and_grads(node, inputs, c, backwards=2)[1:]
        for a, b in zip(once, twice):
            assert np.array_equal(2 * a, b)

    def test_two_lanes_match_one_lane_bit_for_bit(self, monkeypatch):
        # the hidden [8, 260, 64] activation, the 64 px block-0 one of one
        # domain, is cut into three pieces of whole sequences, which the
        # lanes share
        assert len(T._sequence_pieces(np.empty((8, 260, 64)))) == 3
        inputs, c = self.mlp_inputs((8, 260, 16))
        results, kept = [], []
        for lanes in (1, 2):
            use_lanes(monkeypatch, lanes)
            results.append(output_and_grads(mlp_node, inputs, c))
            # the next run must not get this run's freed buffers, which hold
            # the very values a skipped element would fail to write
            kept.append(list(T.tape().nodes))
        for one, two in zip(*results):
            assert np.array_equal(one, two)

    def test_gelu_is_the_plain_expressions_on_one_lane(self, monkeypatch):
        # T.gelu is the oracles' GELU: one elementwise piece, on the caller
        def no_lanes(fn, n, reverse=False):
            raise AssertionError("gelu handed work to the lanes")

        monkeypatch.setattr(T, "run_lanes", no_lanes)
        rng = np.random.default_rng(27)
        inputs, c = [leaf(rng, 8, 260, 64)], Tensor(rng.standard_normal((8, 260, 64)))
        out, grad = output_and_grads(T.gelu, inputs, c)
        x, g = inputs[0].data, c.data
        cdf = 0.5 * (1.0 + erf(x * (1.0 / np.sqrt(2.0))))
        pdf = np.exp(x * -0.5 * x) * (1.0 / np.sqrt(2.0 * np.pi))
        assert np.array_equal(out, x * cdf)
        assert np.array_equal(grad, (pdf * x + cdf) * g)

    def test_mlp_weight_mismatch(self):
        rng = np.random.default_rng(13)
        x, w1, b1, w2 = leaf(rng, 2, 4), leaf(rng, 4, 8), leaf(rng, 8), leaf(rng, 8, 4)
        with pytest.raises(DimensionError, match="mlp"):
            mlp_node(x, w1, b1, w2, leaf(rng, 3))


class TestRunLanes:
    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("n", [2, 7])
    def test_two_lanes_take_a_fixed_stride(self, monkeypatch, n, reverse):
        monkeypatch.setattr(T, "_usable_cpus", lambda: 2)
        seen = {0: [], 1: []}
        T.run_lanes(lambda lane, i: seen[lane].append(i), n, reverse=reverse)
        for lane in (0, 1):
            share = list(range(lane, n, 2))
            assert seen[lane] == (share[::-1] if reverse else share)

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("cpus, n", [(1, 5), (2, 1), (2, 0)])
    def test_one_lane_starts_no_helper(self, monkeypatch, cpus, n, reverse):
        monkeypatch.setattr(T, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(T, "_LANE1", [None])
        seen = []
        T.run_lanes(lambda lane, i: seen.append((lane, i, threading.get_ident())),
                    n, reverse=reverse)
        order = range(n - 1, -1, -1) if reverse else range(n)
        assert seen == [(0, i, threading.get_ident()) for i in order]
        assert T._LANE1 == [None]

    @pytest.mark.parametrize("failing", [0, 1])
    def test_an_error_waits_for_the_other_lanes_share(self, monkeypatch, failing):
        # the failing lane raises at its first item, once the other lane has
        # started; the other lane still runs the rest of its share, after
        # the error, before the caller sees it
        monkeypatch.setattr(T, "_usable_cpus", lambda: 2)
        started, raised, seen = threading.Event(), threading.Event(), {0: [], 1: []}

        def fn(lane, i):
            if lane == failing:
                if not started.wait(timeout=10):
                    raise RuntimeError("the other lane did not start")
                raised.set()
                raise KeyError(i)
            if not seen[lane]:
                started.set()
            elif not raised.wait(timeout=10):
                raise RuntimeError("the failing lane did not raise")
            seen[lane].append(i)

        with pytest.raises(KeyError) as ei:
            T.run_lanes(fn, 6)
        assert ei.value.args == (failing,)
        assert seen[1 - failing] == list(range(1 - failing, 6, 2))
        assert seen[failing] == []

    def test_every_item_runs_once_under_contention(self, monkeypatch):
        # four callers share the one helper thread, with thread switches
        # forced as often as the interpreter allows
        monkeypatch.setattr(T, "_usable_cpus", lambda: 2)
        errors = []

        def caller():
            try:
                for _ in range(20):
                    seen = []
                    T.run_lanes(lambda lane, i: seen.append(i), 50, reverse=True)
                    if sorted(seen) != list(range(50)):
                        errors.append(sorted(seen))
            except Exception as e:
                errors.append(e)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []

    def test_blas_threads_are_read_from_numpys_openblas(self):
        # importing samb.tensor sets numpy's OpenBLAS to one thread, whatever
        # count the environment asks for; without the query, it is missing
        # under every setting
        code = "import samb.tensor\nfrom helpers import blas_threads\nprint(blas_threads())"
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        seen = [subprocess.run([sys.executable, "-c", code], env=dict(env, **threads),
                               check=True, capture_output=True, text=True).stdout.strip()
                for threads in ({"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "2"},
                                {"OMP_NUM_THREADS": "2"}, {})]
        assert seen in (["1"] * 4, ["None"] * 4)

    def test_no_proc_maps_means_no_query(self, monkeypatch):
        def no_file(*args, **kwargs):
            raise FileNotFoundError("/proc/self/maps")

        loaded = []
        monkeypatch.setattr("builtins.open", no_file)
        monkeypatch.setattr(T.ctypes, "CDLL", lambda *args: loaded.append(args))
        assert T._one_blas_thread() is None
        assert loaded == []

    def test_a_library_without_a_setter_is_left_alone(self, monkeypatch):
        maps = "7f00-7f01 r-xp 0 08:01 1 /lib/libopenblas.so\n"
        loaded = []
        monkeypatch.setattr("builtins.open", lambda *args, **kwargs: io.StringIO(maps))
        monkeypatch.setattr(T.ctypes, "CDLL", lambda lib: loaded.append(lib) or object())
        assert T._one_blas_thread() is None
        assert loaded == ["/lib/libopenblas.so"]

    @pytest.mark.parametrize("symbols, chosen", [
        (["openblas_set_num_threads"], "openblas_set_num_threads"),
        (["openblas_set_num_threads64_", "openblas_set_num_threads"],
         "openblas_set_num_threads64_"),
        (["scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
          "openblas_set_num_threads"], "scipy_openblas_set_num_threads64_"),
    ], ids=["plain", "64", "scipy"])
    def test_the_first_setter_found_sets_one_thread(self, monkeypatch, symbols, chosen):
        # a library that will not load is passed over; of the setters the
        # next one offers, only the first in samb's order is called, once, with 1
        maps = ("7f00-7f01 r-xp 0 08:01 1 /lib/a/libopenblas.so\n"
                "7f02-7f03 r-xp 0 08:01 2 /lib/b/libopenblas.so\n")
        calls = []

        def setter(name):
            def call(threads):
                calls.append((name, threads))
            return call

        def load(lib):
            if lib == "/lib/a/libopenblas.so":
                raise OSError(lib)
            return types.SimpleNamespace(**{name: setter(name) for name in symbols})

        monkeypatch.setattr("builtins.open", lambda *args, **kwargs: io.StringIO(maps))
        monkeypatch.setattr(T.ctypes, "CDLL", load)
        assert T._one_blas_thread() is None
        assert calls == [(chosen, 1)]

    def test_the_lanes_use_every_cpu_of_the_affinity_mask(self, monkeypatch):
        # no BLAS or thread variable narrows them; taskset does, through the mask
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
        monkeypatch.setenv("OMP_NUM_THREADS", "4")
        monkeypatch.setattr(T.os, "sched_getaffinity", lambda pid: {0, 2, 5})
        assert T._usable_cpus() == 3

    @pytest.mark.parametrize("cpus, usable", [(3, 3), (None, 1)])
    def test_without_affinity_the_lanes_count_the_cpus(self, monkeypatch, cpus, usable):
        monkeypatch.delattr(T.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(T.os, "cpu_count", lambda: cpus)
        assert T._usable_cpus() == usable

    def test_the_helper_lane_keeps_the_callers_errstate(self, monkeypatch):
        # each lane overflows once; under the caller's errstate neither warns
        use_lanes(monkeypatch, 2)
        seen = []

        def overflow(lane, i):
            seen.append((lane, np.multiply(np.full(1, 1e300), 1e300)[0]))

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with np.errstate(over="ignore"):
                T.run_lanes(overflow, 2)
        assert sorted(seen) == [(0, np.inf), (1, np.inf)]
        assert caught == []

    def test_a_forked_child_gets_its_own_helper(self, monkeypatch):
        # the parent's helper thread does not exist in a forked child
        monkeypatch.setattr(T, "_usable_cpus", lambda: 2)
        T.run_lanes(lambda lane, i: None, 2)

        def child(done):
            seen = []
            T.run_lanes(lambda lane, i: seen.append(i), 50)
            done.put(sorted(seen) == list(range(50)))

        ctx = multiprocessing.get_context("fork")
        done = ctx.Queue()
        proc = ctx.Process(target=child, args=(done,))
        proc.start()
        try:
            ok = done.get(timeout=60)
        finally:
            proc.join(timeout=10)
            if proc.is_alive():
                proc.kill()
        assert ok and proc.exitcode == 0


class TestNoGrad:
    def test_records_nothing_inside(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with T.no_grad():
            out = T.sum_all(T.gelu(w) * 2.0)
        assert T.tape().nodes == []
        assert not out.requires_grad
        assert T.sum_all(w).requires_grad       # recording resumes after the block
        assert len(T.tape().nodes) == 1

    def test_restored_after_exception(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(DimensionError):
            with T.no_grad():
                w + Tensor(np.ones(4))
        T.sum_all(w)
        assert len(T.tape().nodes) == 1

    def test_nested_blocks_restore_the_outer_state(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with T.no_grad():
            with T.no_grad():
                T.sum_all(w)
            T.sum_all(w)
        assert T.tape().nodes == []
        T.sum_all(w)
        assert len(T.tape().nodes) == 1

    def test_leaves_an_existing_tape_untouched(self):
        w = Tensor(np.ones(3), requires_grad=True)
        loss = T.sum_all(w * w)
        nodes = list(T.tape().nodes)
        with T.no_grad():
            T.sum_all(w * 3.0)
        assert T.tape().nodes == nodes
        T.backward(loss)
        assert np.array_equal(w.grad, 2 * np.ones(3))


class TestBatchSplit:
    """Nodes recorded under ``batch_split`` give every input the bits of two
    separate graphs, one per batch, whose gradients the walk adds."""

    OPS = {
        "linear": lambda x, p: T.linear(x, p["w"], p["b"]),
        "mlp": lambda x, p: mlp_node(x, p["w"], p["b"], p["w2"], p["b2"]),
        "layer_norm": lambda x, p: T.layer_norm(x, p["g"], p["b"]),
        "broadcast_add": lambda x, p: x + p["pos"],
        "broadcast_to": lambda x, p: x + T.broadcast_to(p["b"], x.shape),
        "matmul": lambda x, p: x @ p["w"],
    }

    @pytest.mark.parametrize("op", list(OPS))
    def test_grads_match_two_graphs(self, op):
        rng = np.random.default_rng(40)
        params = {"w": leaf(rng, 16, 16), "b": leaf(rng, 16), "w2": leaf(rng, 16, 16),
                  "b2": leaf(rng, 16), "g": leaf(rng, 16), "pos": leaf(rng, 20, 16)}
        x = leaf(rng, 13, 20, 16)
        c = Tensor(rng.standard_normal((13, 20, 16)))

        def grads(paired: bool):
            T.clear_tape()
            for t in [x, *params.values()]:
                t.zero_grad()
            if paired:
                with T.batch_split(9):
                    out = self.OPS[op](x, params)
                loss = T.sum_all(out * c)
            else:
                loss = sum((T.sum_all(self.OPS[op](T.narrow(x, 0, start, n), params)
                                      * T.narrow(c, 0, start, n))
                            for start, n in ((0, 9), (9, 4))), Tensor(0.0))
            T.backward(loss)
            return {k: None if t.grad is None else t.grad.tobytes()
                    for k, t in [("x", x), *params.items()]}

        assert grads(paired=True) == grads(paired=False)

    def test_backward_ends_the_split_after_an_exception(self):
        w = Tensor(np.ones((4, 3)), requires_grad=True)

        def fail(g):
            raise ContractError("backward failed")

        with T.batch_split(2):
            out = T.custom_op(w.data.copy(), (w,), fail)
        with pytest.raises(ContractError):
            T.backward(T.sum_all(out))
        T.sum_all(w)
        assert T.tape().nodes[-1].split is None


class TestBackward:
    def test_sum_gives_ones(self):
        w = Tensor(np.random.default_rng(9).standard_normal((3, 4)),
                   requires_grad=True)
        T.backward(T.sum_all(w))
        assert np.array_equal(w.grad, np.ones((3, 4)))

    def test_half_sum_of_squares(self):
        w = Tensor(np.random.default_rng(10).standard_normal(6), requires_grad=True)
        T.backward(T.sum_all(w * w) * 0.5)
        assert np.abs(w.grad - w.data).max() < 1e-14

    def test_non_scalar_raises(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ContractError):
            T.backward(w * 2.0)

    def test_repeated_backward_accumulates(self):
        w = Tensor(np.ones(4), requires_grad=True)
        loss = T.sum_all(w)
        T.backward(loss)
        T.backward(loss)
        assert np.array_equal(w.grad, 2 * np.ones(4))

    def test_loss_no_node_produced(self):
        loss = Tensor(np.array([2.5]), requires_grad=True)
        T.backward(loss)
        assert np.array_equal(loss.grad, [1.0])
        T.backward(loss)
        assert np.array_equal(loss.grad, [2.0])
        constant = Tensor(np.array([2.5]))
        T.backward(constant)
        assert constant.grad is None

    def test_zero_d_values_stay_zero_d(self):
        assert Tensor(np.array(2.5)).shape == ()
        x = Tensor(np.ones((2, 3)))
        assert T.sum_all(x).shape == T.mean_all(x).shape == ()
        assert T.cross_entropy(x, [0, 2]).shape == ()
        w = Tensor(np.array(1.5), requires_grad=True)
        T.backward(w * w)
        assert w.grad.shape == () and w.grad == 3.0

    def test_leaf_through_two_nodes_adds_to_its_grad(self):
        w = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        w.grad = np.array([10.0, 20.0])
        T.backward(T.sum_all(w * 2.0) + T.sum_all(w * 3.0))
        assert np.array_equal(w.grad, [15.0, 25.0])

    def test_shared_subexpression_accumulation(self):
        # y appears twice; compare against a duplicated-subgraph build
        rng = np.random.default_rng(11)
        data = rng.standard_normal(5)

        w = Tensor(data.copy(), requires_grad=True)
        y = T.tanh(w)
        T.backward(T.sum_all(y * y))
        shared = w.grad.copy()

        T.clear_tape()
        w2 = Tensor(data.copy(), requires_grad=True)
        y1 = T.tanh(w2)
        y2 = T.tanh(w2)
        T.backward(T.sum_all(y1 * y2))
        assert np.abs(shared - w2.grad).max() < 1e-14


class TestGraphLifetime:
    @pytest.fixture
    def no_collector(self):
        enabled = gc.isenabled()
        gc.disable()
        yield
        if enabled:
            gc.enable()

    def test_clear_tape_frees_the_graph_without_the_collector(self, no_collector):
        w = Tensor(np.random.default_rng(12).standard_normal((3, 4)),
                   requires_grad=True)
        h = T.tanh(w * 2.0)
        ref = weakref.ref(h.data)
        loss = T.sum_all(h * h)
        del h
        T.backward(loss)
        assert ref() is not None
        T.clear_tape()
        assert ref() is None

    def test_output_of_a_cleared_node_is_a_leaf(self):
        w = Tensor(np.ones(3), requires_grad=True)
        h = w * 2.0
        T.clear_tape()
        T.backward(T.sum_all(h * h))
        assert np.array_equal(h.grad, 2.0 * h.data)
        assert w.grad is None


# Ten cycles of allocating 24 arrays of 1 MiB and freeing them; prints the
# minor page faults per cycle after the first, warm-up, cycle.
_HEAP_CYCLES = """
import resource
import numpy as np
import samb.tensor

def cycle():
    arrays = [np.ones(1 << 17) for _ in range(24)]
    del arrays

cycle()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(9):
    cycle()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 9)
"""


def run_fresh(code: str) -> str:
    """stdout of ``code`` run by a fresh interpreter that imports this samb."""
    src = os.path.dirname(os.path.dirname(T.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True).stdout


class TestHeapPolicy:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc heap policy")
    def test_freed_memory_stays_in_the_heap(self):
        # a fresh interpreter, so that this process's heap state cannot hide
        # the result; without the policy every cycle faults its 24 MiB back in
        assert float(run_fresh(_HEAP_CYCLES)) < 500


_ERF_POINTS = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324,
                        6.0, -6.0, 40.0, -40.0])


def fallback_erf(monkeypatch, how: str):
    """``T._load_erf()`` with the direct load of the compiled module broken."""
    if how == "raises":
        def broken(*args, **kwargs):
            raise ImportError("no compiled module")
        monkeypatch.setattr(importlib.machinery, "FileFinder", broken)
    else:                               # the module is not found
        monkeypatch.setattr(importlib.machinery.FileFinder, "find_spec",
                            lambda self, name, target=None: None)
    return T._load_erf()


class TestErf:
    def test_import_leaves_scipy_special_out(self):
        # scipy.special's __init__ pulls in numpy.f2py, numpy.testing and more
        loaded = run_fresh("import sys, samb.cli\n"
                           "print(' '.join(sorted(sys.modules)))").split()
        assert "scipy.special" not in loaded
        assert "numpy.f2py" not in loaded

    def test_is_scipy_special_erf(self):
        assert T.erf is erf

    @pytest.mark.parametrize("how", ["raises", "missing"])
    def test_fallback_is_scipy_special_erf(self, monkeypatch, how):
        assert fallback_erf(monkeypatch, how) is erf

    def test_same_bits_from_both_paths(self, monkeypatch):
        direct = T._load_erf()(_ERF_POINTS)
        fallback = fallback_erf(monkeypatch, "raises")(_ERF_POINTS)
        assert direct.tobytes() == fallback.tobytes()
        assert np.array_equal(direct, [np.nan, 1, -1, 0, -0.0, 5e-324,
                                       -5e-324, 1, -1, 1, -1], equal_nan=True)
        assert np.signbit(direct[4]) and not np.signbit(direct[3])


class TestSgd:
    def test_zero_grad_no_change(self):
        p = Tensor(np.ones(3), requires_grad=True)
        p.grad = np.zeros(3)
        T.sgd_step([p], lr=0.5, momentum=0.9, weight_decay=0.0)
        assert np.array_equal(p.data, np.ones(3))

    def test_plain_step(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        p.grad = np.array([0.5, -0.5])
        T.sgd_step([p], lr=1.0, momentum=0.0, weight_decay=0.0)
        assert np.allclose(p.data, [0.5, 2.5])

    def test_momentum_unrolled(self):
        g = np.array([1.0, -2.0])
        p = Tensor(np.zeros(2), requires_grad=True)
        velocity = {}
        for _ in range(2):
            p.grad = g.copy()
            assert T.sgd_step([p], lr=0.1, momentum=0.9, weight_decay=0.0,
                              velocity=velocity) is velocity
        # hand-unrolled: v1 = g; p1 = -0.1 g; v2 = 0.9 g + g; p2 = p1 - 0.1*1.9 g
        expected = -0.1 * g - 0.1 * 1.9 * g
        assert np.abs(p.data - expected).max() < 1e-12

    @pytest.mark.parametrize("lr", [0.0, -0.1, np.nan, np.inf])
    def test_lr_must_be_finite_and_positive(self, lr):
        p = Tensor(np.ones(2), requires_grad=True)
        p.grad = np.ones(2)
        with pytest.raises(ContractError, match="lr must be finite"):
            T.sgd_step([p], lr=lr)
        assert np.array_equal(p.data, np.ones(2))

    def test_weight_decay(self):
        p = Tensor(np.array([2.0]), requires_grad=True)
        p.grad = np.array([0.0])
        T.sgd_step([p], lr=0.1, momentum=0.0, weight_decay=0.5)
        assert np.allclose(p.data, [2.0 - 0.1 * 0.5 * 2.0])


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(12)
        params = {"a.w": Tensor(rng.standard_normal((3, 4))),
                  "b": Tensor(rng.standard_normal(7)),
                  "scalar": Tensor(1.25)}
        path = tmp_path / "ckpt.samb"
        T.save_checkpoint(path, params)
        loaded = T.load_checkpoint(path)
        assert set(loaded) == set(params)
        assert params["scalar"].shape == ()
        for k in params:
            assert loaded[k].shape == params[k].shape
            assert loaded[k].data.tobytes() == params[k].data.tobytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.samb"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FormatError):
            T.load_checkpoint(path)

    def test_truncation_offset(self, tmp_path):
        path = tmp_path / "ckpt.samb"
        T.save_checkpoint(path, {"w": Tensor(np.arange(4.0))})
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(FormatError, match="payload"):
            T.load_checkpoint(path)

    def test_dims_whose_int64_product_wraps(self, tmp_path):
        # 65536**4 == 2**64 wraps to 0 in int64, which would pass a length
        # check made with np.prod and fail later in reshape
        path = tmp_path / "ckpt.samb"
        name = b"w"
        path.write_bytes(b"SAMB" + struct.pack("<I", 1) + struct.pack("<I", len(name))
                         + name + struct.pack("<5I", 4, *(65536,) * 4))
        with pytest.raises(FormatError, match="payload") as ei:
            T.load_checkpoint(path)
        assert ei.value.offset == 8 + 4 + len(name) + 4

    def test_duplicate_record_name(self, tmp_path):
        path = tmp_path / "ckpt.samb"
        T.save_checkpoint(path, {"w": Tensor(np.arange(4.0))})
        blob = path.read_bytes()
        path.write_bytes(blob + blob[8:])
        with pytest.raises(FormatError, match="duplicate record 'w'") as ei:
            T.load_checkpoint(path)
        assert ei.value.offset == len(blob)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload(self, tmp_path, bad):
        path = tmp_path / "ckpt.samb"
        T.save_checkpoint(path, {"a": Tensor(np.ones(2))})
        record_b = len(path.read_bytes())
        T.save_checkpoint(path, {"a": Tensor(np.ones(2)),
                                 "b": Tensor(np.array([[1.0, bad]]))})
        with pytest.raises(FormatError, match="'b' holds a non-finite") as ei:
            T.load_checkpoint(path)
        assert ei.value.offset == record_b

    def test_name_not_utf8(self, tmp_path):
        path = tmp_path / "ckpt.samb"
        T.save_checkpoint(path, {"w": Tensor(np.arange(4.0))})
        blob = bytearray(path.read_bytes())
        blob[12] = 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="UTF-8") as ei:
            T.load_checkpoint(path)
        assert ei.value.offset == 12

    @pytest.mark.parametrize("dims", [(1,) * 65, (1,) * 64 + (0,),
                                      (0xFFFFFFFF,) * 1200],
                             ids=["rank65-ones", "rank65-zero-dim", "rank1200"])
    def test_rank_beyond_numpy_limit(self, tmp_path, dims):
        # each used to end in a bare ValueError: from reshape for rank 65,
        # and from formatting a 11560-digit byte count for rank 1200
        path = tmp_path / "ckpt.samb"
        name = b"w"
        count = math.prod(dims)
        path.write_bytes(b"SAMB" + struct.pack("<I", 1) + struct.pack("<I", len(name))
                         + name + struct.pack(f"<{1 + len(dims)}I", len(dims), *dims)
                         + b"\x00" * 8 * min(count, 1))
        with pytest.raises(FormatError, match="rank") as ei:
            T.load_checkpoint(path)
        assert ei.value.offset == 8 + 4 + len(name)

    def test_zero_dim_beside_dims_that_overflow(self, tmp_path):
        # the payload is empty, but numpy refuses dims whose nonzero product
        # overflows, which used to end in a bare ValueError
        path = tmp_path / "ckpt.samb"
        name = b"w"
        path.write_bytes(b"SAMB" + struct.pack("<I", 1) + struct.pack("<I", len(name))
                         + name + struct.pack("<5I", 4, 0, *(0xFFFFFFFF,) * 3))
        with pytest.raises(FormatError, match="do not fit") as ei:
            T.load_checkpoint(path)
        assert ei.value.offset == 8 + 4 + len(name) + 4
