"""Adversarial feature alignment: gradient reversal, the domain
discriminator and its loss."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError
from .model import trunc_normal
from .tensor import Tensor


def grl(x: Tensor, lam: float) -> Tensor:
    """Identity forward; backward multiplies the upstream gradient by -lam."""
    lam = float(lam)
    if not np.isfinite(lam):
        raise ContractError("grl: lambda must be finite")
    return T.custom_op(x.data.copy(), (x,), lambda g: (-lam * g,))


@dataclass
class GrlConfig:
    """DANN-style warm-up: lam(p) = lam_max * (2 / (1 + exp(-gamma p)) - 1)."""
    lambda_max: float = 1.0
    gamma: float = 10.0

    def __post_init__(self):
        for key in ("lambda_max", "gamma"):
            value = getattr(self, key)
            if not 0.0 <= value < np.inf:
                raise ConfigError(f"{key} must be finite and >= 0, got {value}")

    def lambda_at(self, progress: float) -> float:
        p = min(max(progress, 0.0), 1.0)
        return self.lambda_max * (2.0 / (1.0 + np.exp(-self.gamma * p)) - 1.0)


class Discriminator:
    """2-layer MLP with GELU hidden and sigmoid output in (0, 1)."""

    def __init__(self, feat_dim: int, rng: np.random.Generator):
        hidden = 4 * feat_dim
        self.w1 = Tensor(trunc_normal(rng, (feat_dim, hidden)), requires_grad=True)
        self.b1 = Tensor(np.zeros(hidden), requires_grad=True)
        self.w2 = Tensor(trunc_normal(rng, (hidden, 1)), requires_grad=True)
        self.b2 = Tensor(np.zeros(1), requires_grad=True)

    def named_params(self) -> dict[str, Tensor]:
        return {"disc.w1": self.w1, "disc.b1": self.b1,
                "disc.w2": self.w2, "disc.b2": self.b2}

    def params(self) -> list[Tensor]:
        return list(self.named_params().values())

    def forward(self, feat: Tensor) -> Tensor:
        """The [B] probabilities of [B, d] ``feat`` as one node, which keeps
        the GELU cdf (``T._mlp_forward``) and the probabilities.  Output and
        gradients are bit-identical to the composition ``linear``, ``gelu``,
        ``linear``, ``sigmoid``, ``reshape``
        (``tests/helpers.py::unfused_discriminator``)."""
        params = self.w1, self.b1, self.w2, self.b2
        z, cdf = T._mlp_forward(feat.data, *params, "discriminator")
        p = T._sigmoid(z)

        def backward(g):
            gz = g.reshape(p.shape) * p * (1.0 - p)
            return T._mlp_grads(feat.data, cdf, *params, gz, feat.requires_grad)

        return T.custom_op(p.reshape(feat.shape[0]), (feat, *params), backward)


_LOG_FLOOR = 1e-12


def domain_loss(feat_s: Tensor, feat_t: Tensor, disc: Discriminator) -> Tensor:
    """-E_s[log D(f_s)] - E_t[log(1 - D(f_t))], log arguments floored at
    1e-12, as one node over the probabilities ``disc.forward`` gives.

    Output and gradients are bit-identical to the composition ``clamp_min``,
    ``log`` and ``mean_all`` per domain (after ``1 - p`` for the target), a
    ``scale`` by -1 and a ``sub`` (``tests/helpers.py::unfused_domain_loss``).
    """
    if feat_s.shape[0] == 0 or feat_t.shape[0] == 0:
        raise ContractError("domain_loss: empty batch")
    p_s, p_t = disc.forward(feat_s), disc.forward(feat_t)
    q_t = 1.0 - p_t.data
    clamped_s, clamped_t = np.maximum(p_s.data, _LOG_FLOOR), np.maximum(q_t, _LOG_FLOOR)
    loss = np.log(clamped_s).mean() * -1.0 - np.log(clamped_t).mean()

    def backward(g):
        gs = np.broadcast_to((g * -1.0) / p_s.size, p_s.shape) / clamped_s
        gt = np.broadcast_to(-g / p_t.size, p_t.shape) / clamped_t
        return gs * (p_s.data >= _LOG_FLOOR), -(gt * (q_t >= _LOG_FLOOR))

    return T.custom_op(loss, (p_s, p_t), backward)
