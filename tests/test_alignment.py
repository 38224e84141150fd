import math

import numpy as np
import pytest

import samb.tensor as T
from samb.alignment import Discriminator, GrlConfig, domain_loss, grl
from samb.errors import ContractError
from samb.tensor import Tensor


@pytest.fixture(autouse=True)
def fresh_tape():
    T.clear_tape()
    yield
    T.clear_tape()


class TestGrl:
    def test_forward_identity(self):
        x = Tensor([1.0, 2.0, 3.0])
        assert grl(x, 0.5).data.tobytes() == x.data.tobytes()

    def test_backward_negates(self):
        x = Tensor(np.arange(4.0), requires_grad=True)
        T.backward(T.sum_all(grl(x, 1.0)))
        assert np.array_equal(x.grad, -np.ones(4))

    def test_backward_exact_scaling(self):
        # backward must be exactly -lam * upstream, bit for bit
        rng = np.random.default_rng(0)
        lam = 0.731
        data = rng.standard_normal(16)
        upstream = rng.standard_normal(16)
        x = Tensor(data, requires_grad=True)
        T.backward(T.sum_all(grl(x, lam) * Tensor(upstream)))
        assert x.grad.tobytes() == (-lam * upstream).tobytes()

    def test_composite_vs_manually_negated_graph(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((3, 4))
        w = rng.standard_normal((4, 2))
        lam = 1.7

        x1 = Tensor(data.copy(), requires_grad=True)
        T.backward(T.sum_all(T.tanh(grl(x1, lam) @ Tensor(w))))
        via_grl = x1.grad.copy()

        T.clear_tape()
        x2 = Tensor(data.copy(), requires_grad=True)
        T.backward(T.sum_all(T.tanh(x2 @ Tensor(w))) * (-lam))
        assert np.abs(via_grl - x2.grad).max() < 1e-12


class TestLambdaSchedule:
    def test_endpoints(self):
        cfg = GrlConfig(lambda_max=1.0, gamma=10.0)
        assert abs(cfg.lambda_at(0.0)) < 1e-12
        expected = 2.0 / (1.0 + math.exp(-10.0)) - 1.0
        assert abs(cfg.lambda_at(1.0) - expected) < 1e-12

    def test_monotone(self):
        cfg = GrlConfig()
        vals = [cfg.lambda_at(p) for p in np.linspace(0, 1, 50)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class _ConstHalfDisc(Discriminator):
    def __init__(self):
        pass

    def forward(self, feat):
        return Tensor(np.full(feat.shape[0], 0.5))


class TestDomainLoss:
    def test_fixed_point_two_ln_two(self):
        loss = domain_loss(Tensor(np.zeros((3, 4))), Tensor(np.zeros((5, 4))),
                           _ConstHalfDisc())
        assert abs(loss.item() - 2 * math.log(2)) < 1e-12

    def test_perfect_discriminator_limit(self):
        class Perfect(Discriminator):
            def __init__(self):
                pass

            def forward(self, feat):
                # source features are positive, target negative in this test
                return T.sigmoid(Tensor(1e3 * np.sign(feat.data[:, 0])))

        loss = domain_loss(Tensor(np.ones((3, 2))), Tensor(-np.ones((3, 2))),
                           Perfect())
        assert loss.item() < 1e-9

    def test_empty_batch(self):
        with pytest.raises(ContractError):
            domain_loss(Tensor(np.zeros((0, 4))), Tensor(np.zeros((2, 4))),
                        _ConstHalfDisc())

    def test_scalar_oracle(self):
        rng = np.random.default_rng(2)
        disc = Discriminator(4, rng)
        fs = rng.standard_normal((3, 4))
        ft = rng.standard_normal((3, 4))
        loss = domain_loss(Tensor(fs), Tensor(ft), disc)

        def d(v):
            h = v @ disc.w1.data + disc.b1.data
            h = 0.5 * h * (1 + np.vectorize(math.erf)(h / math.sqrt(2)))
            z = float((h @ disc.w2.data + disc.b2.data)[0])
            return 1.0 / (1.0 + math.exp(-z))

        expected = (-sum(math.log(d(v)) for v in fs) / 3
                    - sum(math.log(1 - d(v)) for v in ft) / 3)
        assert abs(loss.item() - expected) < 1e-10

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for seed in range(5):
            disc = Discriminator(4, np.random.default_rng(seed))
            loss = domain_loss(Tensor(rng.standard_normal((4, 4))),
                               Tensor(rng.standard_normal((4, 4))), disc)
            assert loss.item() >= 0.0
            T.clear_tape()


class TestAdaObjective:
    def _setup(self, seed=4):
        rng = np.random.default_rng(seed)
        logits = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        fs = Tensor(rng.standard_normal((3, 8)), requires_grad=True)
        ft = Tensor(rng.standard_normal((3, 8)), requires_grad=True)
        disc = Discriminator(8, rng)
        labels = np.array([0, 1, 3])
        return logits, labels, fs, ft, disc

    def test_lambda_zero_is_pure_classification(self):
        logits, labels, fs, ft, disc = self._setup()
        total = T.cross_entropy(logits, labels) + domain_loss(
            grl(fs, 0.0), grl(ft, 0.0), disc)
        T.backward(total)
        grad_with = logits.grad.copy()
        feat_grad = fs.grad.copy()

        T.clear_tape()
        logits.zero_grad()
        T.backward(T.cross_entropy(logits, labels))
        assert np.abs(grad_with - logits.grad).max() < 1e-12
        assert np.abs(feat_grad).max() < 1e-30  # reversal disabled

    def test_discriminator_step_decreases_domain_loss(self):
        rng = np.random.default_rng(5)
        disc = Discriminator(8, rng)
        fs = Tensor(rng.standard_normal((16, 8)) + 1.0)
        ft = Tensor(rng.standard_normal((16, 8)) - 1.0)
        before = domain_loss(fs, ft, disc)
        T.backward(before)
        T.sgd_step(disc.params(), lr=0.05)
        T.clear_tape()
        after = domain_loss(fs, ft, disc)
        assert after.item() < before.item()

    def test_backbone_gradient_is_negated_domain_gradient(self):
        rng = np.random.default_rng(6)
        disc = Discriminator(8, rng)
        fs_data = rng.standard_normal((4, 8))
        ft_data = rng.standard_normal((4, 8))
        lam = 0.9

        fs = Tensor(fs_data.copy(), requires_grad=True)
        ft = Tensor(ft_data.copy(), requires_grad=True)
        T.backward(domain_loss(grl(fs, lam), grl(ft, lam), disc))
        reversed_grad = fs.grad.copy()

        T.clear_tape()
        fs2 = Tensor(fs_data.copy(), requires_grad=True)
        ft2 = Tensor(ft_data.copy(), requires_grad=True)
        T.backward(domain_loss(fs2, ft2, disc))
        assert np.abs(reversed_grad + lam * fs2.grad).max() < 1e-12
