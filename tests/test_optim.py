"""Adam optimizer behavior."""

import numpy as np
import pytest

from tacforce import autodiff as ad
from tacforce.errors import ContractError
from tacforce.optim import Adam


def quad_loss(p, target):
    diff = p - ad.Tensor(target)
    return ad.square(diff).sum()


class TestAdam:
    def test_first_step_is_lr_sized(self):
        # with bias correction the very first update has magnitude ~lr
        p = ad.parameter(np.array([10.0]))
        opt = Adam([{"params": [p], "lr": 0.5}])
        quad_loss(p, np.array([0.0])).backward()
        opt.step()
        np.testing.assert_allclose(p.data, [10.0 - 0.5], atol=1e-6)

    def test_converges_on_quadratic(self):
        p = ad.parameter(np.array([5.0, -3.0]))
        target = np.array([1.0, 2.0])
        opt = Adam([{"params": [p], "lr": 0.1}])
        for _ in range(500):
            opt.zero_grad()
            quad_loss(p, target).backward()
            opt.step()
        np.testing.assert_allclose(p.data, target, atol=1e-3)

    def test_matches_reference_implementation(self):
        # hand-rolled scalar Adam as an independent oracle
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        p = ad.parameter(np.array([2.0]))
        opt = Adam([{"params": [p], "lr": lr}], beta1=b1, beta2=b2, eps=eps)

        x = 2.0
        m = v = 0.0
        for t in range(1, 8):
            g = 2.0 * x  # d/dx of x^2
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mh = m / (1 - b1**t)
            vh = v / (1 - b2**t)
            x = x - lr * mh / (np.sqrt(vh) + eps)

            opt.zero_grad()
            ad.square(p).sum().backward()
            opt.step()

        np.testing.assert_allclose(p.data, [x], rtol=1e-12)

    def test_groups_use_their_own_lr(self):
        a = ad.parameter(np.array([1.0]))
        b = ad.parameter(np.array([1.0]))
        opt = Adam([
            {"params": [a], "lr": 0.1},
            {"params": [b], "lr": 0.001},
        ])
        opt.zero_grad()
        (ad.square(a).sum() + ad.square(b).sum()).backward()
        opt.step()
        # identical grads, so the update ratio equals the lr ratio
        da = 1.0 - a.data[0]
        db = 1.0 - b.data[0]
        np.testing.assert_allclose(da / db, 100.0, rtol=1e-6)

    def test_param_without_grad_is_skipped(self):
        a = ad.parameter(np.array([1.0]))
        b = ad.parameter(np.array([1.0]))
        opt = Adam([{"params": [a, b], "lr": 0.1}])
        ad.square(a).sum().backward()
        opt.step()
        assert a.data[0] != 1.0
        assert b.data[0] == 1.0

    def test_rejects_frozen_tensor(self):
        t = ad.Tensor(np.zeros(2))
        with pytest.raises(ContractError):
            Adam([{"params": [t], "lr": 0.1}])

    def test_rejects_duplicate_param(self):
        p = ad.parameter(np.zeros(2))
        with pytest.raises(ContractError):
            Adam([{"params": [p], "lr": 0.1}, {"params": [p], "lr": 0.2}])
