import math
from fractions import Fraction

import numpy as np
import pytest

from tacforce import autodiff as ad
from tacforce import training
from tacforce.dataset import DepthNormalizer, run_indentation, sample_poses
from tacforce.errors import ContractError, TrainingDiverged
from tacforce.geometry import PoseRange
from tacforce.indenters import get_indenter
from tacforce.model import ForceNet, ModelConfig
from tacforce.optim import Adam
from tacforce.profiles import get_profile
from tacforce.training import (EvalReport, TrainConfig, evaluate, loss_depth,
                               loss_force, loss_total, lr_scale,
                               make_training_arrays, model_estimator,
                               normalized_error, oracle_estimator,
                               per_axis_mae, train)

TINY = ModelConfig(embed_dim=16, depth=1, heads=2, decoder_channels=8)


@pytest.fixture(scope="module")
def tiny_data():
    profile = get_profile("sensor1-gel1")
    poses = sample_poses(PoseRange(x=3, y=3, roll=3, pitch=3, yaw=180), 4, seed=5)
    samples = []
    tool = get_indenter("small_sphere")
    for i in range(4):
        run = run_indentation(tool, poses[i], profile, step=0.4, f_max=6.0,
                              rng_seed=(17, i))
        samples.append(run[-1])
    return make_training_arrays(samples, DepthNormalizer.from_samples(samples))


def snapshot(net):
    return {k: p.data.copy() for k, p in net.named_params().items()}


def step_lrs(monkeypatch, data, cfg):
    """Train a TINY net and return the (steps, groups) rates Adam stepped with."""
    seen = []

    class Recorder(Adam):
        def step(self):
            seen.append([g["lr"] for g in self.groups])
            super().step()

    monkeypatch.setattr(training, "Adam", Recorder)
    train(data, ForceNet(TINY, seed=0), cfg)
    return np.array(seen)


class TestLossForce:
    def test_zero_residual(self):
        f = ad.Tensor([[1.0, -2.0, 3.0]])
        assert float(loss_force(f, f).data) == 0.0

    def test_single_sample_hand_value(self):
        target = ad.Tensor([[0.0, 0.0, 0.0]])
        pred = ad.Tensor([[0.1, -0.2, 0.3]])
        assert float(loss_force(target, pred).data) == pytest.approx(0.6, abs=1e-12)

    def test_batch_mean_hand_value(self):
        target = ad.Tensor(np.zeros((2, 3)))
        pred = ad.Tensor([[0.1, -0.2, 0.3], [0.5, -0.3, 0.2]])
        assert float(loss_force(target, pred).data) == pytest.approx(0.8, abs=1e-12)


class TestLossDepth:
    def test_zero_residual(self):
        d = ad.Tensor(np.random.default_rng(0).normal(size=(2, 1, 4, 4)))
        assert float(loss_depth(d, d).data) == 0.0

    def test_half_everywhere(self):
        target = ad.Tensor(np.zeros((1, 1, 2, 2)))
        pred = ad.Tensor(np.full((1, 1, 2, 2), 0.5))
        assert float(loss_depth(target, pred).data) == 1.0

    def test_norm_homogeneity(self):
        rng = np.random.default_rng(1)
        resid = rng.normal(size=(3, 1, 5, 5))
        zero = ad.Tensor(np.zeros_like(resid))
        once = float(loss_depth(zero, ad.Tensor(resid)).data)
        twice = float(loss_depth(zero, ad.Tensor(2.0 * resid)).data)
        assert twice == 2.0 * once


class TestLossTotal:
    def test_hand_values(self):
        one = ad.Tensor(1.0)
        two = ad.Tensor(2.0)
        assert float(loss_total(one, one, 1.0, 0.0).data) == 1.0
        assert float(loss_total(one, two, 0.5, 0.5).data) == 1.5

    def test_nonnegative_and_zero_iff_zero_residuals(self):
        rng = np.random.default_rng(2)
        target = ad.Tensor(rng.normal(size=(4, 3)))
        pred = ad.Tensor(rng.normal(size=(4, 3)))
        lf = loss_force(target, pred)
        dt = ad.Tensor(rng.normal(size=(4, 1, 4, 4)))
        dp = ad.Tensor(rng.normal(size=(4, 1, 4, 4)))
        ld = loss_depth(dt, dp)
        assert float(loss_total(lf, ld, 1.0, 1.0).data) > 0.0
        zero = loss_total(loss_force(target, target), loss_depth(dt, dt), 1.0, 1.0)
        assert float(zero.data) == 0.0


class TestNormalizedError:
    def test_zero(self):
        f = np.array([[1.0, 2.0, 3.0]])
        assert normalized_error(f, f) == 0.0

    def test_z_only(self):
        e = normalized_error([[0.0, 0.0, 0.0]], [[0.0, 0.0, 1.5]])
        assert e == pytest.approx(0.1 / 3, abs=1e-15)

    def test_all_axes(self):
        e = normalized_error([[0.0, 0.0, 0.0]], [[0.4, 0.4, 1.5]])
        assert e == pytest.approx(0.1, abs=1e-12)

    def test_batch_mean(self):
        target = np.zeros((2, 3))
        pred = np.array([[0.0, 0.0, 1.5], [0.0, 0.0, 0.0]])
        assert normalized_error(target, pred) == pytest.approx(0.05 / 3, abs=1e-15)

    def test_per_axis_mae(self):
        target = np.zeros((2, 3))
        pred = np.array([[0.2, -0.4, 1.0], [0.6, 0.0, -3.0]])
        assert np.allclose(per_axis_mae(target, pred), [0.4, 0.2, 2.0])


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.epochs == 100
        assert cfg.backbone_lr == 5e-5
        assert cfg.head_lr == 1e-5
        assert cfg.alpha == 1.0 and cfg.beta_w == 1.0

    def test_rejects_negative_lr(self):
        with pytest.raises(ContractError):
            TrainConfig(backbone_lr=-1e-4)

    def test_rejects_negative_weights(self):
        with pytest.raises(ContractError):
            TrainConfig(alpha=-0.5)

    def test_rejects_all_zero_weights(self):
        with pytest.raises(ContractError):
            TrainConfig(alpha=0.0, beta_w=0.0)

    def test_rejects_bad_batch(self):
        with pytest.raises(ContractError):
            TrainConfig(batch_size=0)

    @pytest.mark.parametrize("field", ["backbone_lr", "head_lr", "alpha", "beta_w"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_rates_and_weights(self, field, value):
        with pytest.raises(ContractError, match=f"{field} must be finite"):
            TrainConfig(**{field: value})


class TestTrainLoop:
    def test_zero_lr_is_identity(self, tiny_data):
        net = ForceNet(TINY, seed=0)
        before = snapshot(net)
        curve = train(tiny_data, net, TrainConfig(batch_size=4, epochs=3,
                                                  backbone_lr=0.0, head_lr=0.0, seed=0))
        after = snapshot(net)
        assert all(np.array_equal(before[k], after[k]) for k in before)
        # batch permutation reorders the mean's summands, so "flat" holds
        # to reassociation noise, not bitwise
        assert np.allclose(curve[:, 1:], curve[0, 1:], rtol=1e-12, atol=0)

    def test_lr_scale_decays_last_fifth(self):
        for epochs in range(0, 61):
            full = math.ceil(Fraction(4 * epochs, 5))
            assert ([lr_scale(e, epochs) for e in range(epochs)]
                    == [1.0] * full + [0.1] * (epochs - full)), epochs

    def test_both_groups_decay_from_four_fifths(self, tiny_data, monkeypatch):
        # batch == set size: one step per epoch, so rows are epochs
        lrs = step_lrs(monkeypatch, tiny_data,
                       TrainConfig(batch_size=4, epochs=10, backbone_lr=1e-3,
                                   head_lr=4e-3, seed=0))
        assert lrs.shape == (10, 2)
        assert np.array_equal(lrs[:8], np.tile([1e-3, 4e-3], (8, 1)))
        assert np.array_equal(lrs[8:], np.tile([1e-3 * 0.1, 4e-3 * 0.1], (2, 1)))

    @pytest.mark.parametrize("epochs", [1, 3])
    def test_short_runs_never_decay(self, tiny_data, monkeypatch, epochs):
        lrs = step_lrs(monkeypatch, tiny_data,
                       TrainConfig(batch_size=2, epochs=epochs, backbone_lr=1e-3,
                                   head_lr=4e-3, seed=0))
        assert lrs.shape == (2 * epochs, 2)
        assert np.array_equal(lrs, np.tile([1e-3, 4e-3], (2 * epochs, 1)))

    def test_zero_lr_stays_zero_through_decay(self, tiny_data):
        net = ForceNet(TINY, seed=0)
        before = snapshot(net)
        train(tiny_data, net, TrainConfig(batch_size=4, epochs=10,
                                          backbone_lr=0.0, head_lr=0.0, seed=0))
        after = snapshot(net)
        assert all(np.array_equal(before[k], after[k]) for k in before)

    def test_curve_layout(self, tiny_data):
        net = ForceNet(TINY, seed=1)
        curve = train(tiny_data, net, TrainConfig(batch_size=2, epochs=5,
                                                  backbone_lr=1e-3, head_lr=1e-3, seed=0))
        assert curve.shape == (5, 4)
        assert np.array_equal(curve[:, 0], np.arange(5))
        assert (curve[:, 1:] >= 0).all()
        # total column is alpha*L_F + beta_w*L_D
        assert np.allclose(curve[:, 3], curve[:, 1] + curve[:, 2], atol=1e-12)

    def test_bitwise_determinism(self, tiny_data):
        cfg = TrainConfig(batch_size=2, epochs=4, backbone_lr=1e-3, head_lr=1e-3, seed=9)
        c1 = train(tiny_data, ForceNet(TINY, seed=3), cfg)
        c2 = train(tiny_data, ForceNet(TINY, seed=3), cfg)
        assert np.array_equal(c1, c2)

    def test_seed_changes_batching(self, tiny_data):
        a = train(tiny_data, ForceNet(TINY, seed=3),
                  TrainConfig(batch_size=2, epochs=4, backbone_lr=1e-3, head_lr=1e-3, seed=0))
        b = train(tiny_data, ForceNet(TINY, seed=3),
                  TrainConfig(batch_size=2, epochs=4, backbone_lr=1e-3, head_lr=1e-3, seed=1))
        assert not np.array_equal(a, b)

    def test_frozen_backbone(self, tiny_data):
        net = ForceNet(TINY, seed=4)
        before = snapshot(net)
        train(tiny_data, net, TrainConfig(batch_size=4, epochs=2, backbone_lr=1e-3,
                                          head_lr=1e-3, seed=0, frozen_backbone=True))
        after = snapshot(net)
        enc = {name for name, _ in net.encoder.named_params()}
        assert all(np.array_equal(before[n], after[n]) for n in enc)
        assert any(not np.array_equal(before[n], after[n]) for n in after if n not in enc)

    def test_no_decoder_leaves_decoder_untouched(self, tiny_data):
        net = ForceNet(TINY, seed=5)
        before = snapshot(net)
        curve = train(tiny_data, net, TrainConfig(batch_size=4, epochs=2, backbone_lr=1e-3,
                                                  head_lr=1e-3, seed=0, with_decoder=False))
        after = snapshot(net)
        dec = {name for name, _ in net.decoder.named_params()}
        assert all(np.array_equal(before[n], after[n]) for n in dec)
        assert np.array_equal(curve[:, 2], np.zeros(2))

    def test_zero_depth_weight_matches_detached_decoder(self, tiny_data):
        weighted = ForceNet(TINY, seed=6)
        detached = ForceNet(TINY, seed=6)
        train(tiny_data, weighted, TrainConfig(batch_size=2, epochs=3, backbone_lr=1e-3,
                                               head_lr=1e-3, seed=1, beta_w=0.0))
        train(tiny_data, detached, TrainConfig(batch_size=2, epochs=3, backbone_lr=1e-3,
                                               head_lr=1e-3, seed=1, beta_w=0.0,
                                               with_decoder=False))
        sw, sd = snapshot(weighted), snapshot(detached)
        assert all(np.array_equal(sw[k], sd[k]) for k in sw)

    def test_divergence_reports_position(self, tiny_data):
        poisoned = {k: v.copy() for k, v in tiny_data.items()}
        poisoned["forces"][0, 0] = np.nan
        with pytest.raises(TrainingDiverged) as info:
            train(poisoned, ForceNet(TINY, seed=0),
                  TrainConfig(batch_size=4, epochs=1, backbone_lr=1e-3, head_lr=1e-3, seed=0))
        assert info.value.epoch == 0
        assert info.value.batch == 0

    def test_divergence_names_the_loss(self, tiny_data):
        poisoned = {k: v.copy() for k, v in tiny_data.items()}
        poisoned["forces"][:, 1] = np.inf
        with pytest.raises(TrainingDiverged, match="non-finite loss at epoch 0, batch 0"):
            train(poisoned, ForceNet(TINY, seed=0),
                  TrainConfig(batch_size=2, epochs=1, backbone_lr=1e-3, head_lr=1e-3, seed=0))

    def test_nan_gradient_stops_before_the_update(self, tiny_data, monkeypatch):
        net = ForceNet(TINY, seed=0)
        cfg = TrainConfig(batch_size=4, epochs=1, backbone_lr=1e-3, head_lr=1e-3)
        opt = training.build_optimizer(net, cfg)
        batch = (tiny_data["images"], tiny_data["forces"], tiny_data["depths"])
        training.train_step(net, opt, *batch, cfg)  # so Adam holds moments
        params = snapshot(net)
        moments = {k: (m.copy(), opt._v[k].copy()) for k, m in opt._m.items()}
        real_backward = ad.backward
        victim = net

        def poisoned_backward(loss):
            real_backward(loss)
            victim.named_params()["regressor.out.weight"].grad[0, 0] = np.nan

        monkeypatch.setattr(training.ad, "backward", poisoned_backward)
        with pytest.raises(TrainingDiverged, match="gradient of regressor.out.weight"):
            training.train_step(net, opt, *batch, cfg)
        assert opt.t == 1
        assert set(moments) == set(opt._m)
        for k, (m, v) in moments.items():
            assert np.array_equal(opt._m[k], m) and np.array_equal(opt._v[k], v)
        after = snapshot(net)
        assert all(np.array_equal(after[k], params[k]) for k in params)

        victim = ForceNet(TINY, seed=0)
        with pytest.raises(TrainingDiverged, match="non-finite gradient of regressor.out.weight "
                                                   "at epoch 0, batch 0") as info:
            train(tiny_data, victim, cfg)
        assert (info.value.epoch, info.value.batch) == (0, 0)

    def test_empty_dataset_rejected(self):
        empty = {"images": np.zeros((0, 32, 32, 3)), "forces": np.zeros((0, 3)),
                 "depths": np.zeros((0, 32, 32))}
        with pytest.raises(ContractError):
            train(empty, ForceNet(TINY), TrainConfig())

    def test_gradient_linearity(self, tiny_data):
        net = ForceNet(TINY, seed=6)
        imgs = tiny_data["images"][:2]
        forces = tiny_data["forces"][:2]
        depths = tiny_data["depths"][:2]

        def grads_of(alpha, beta):
            for p in net.named_params().values():
                p.grad = None
            f, d = net.forward(imgs)
            lf = loss_force(ad.Tensor(forces), f)
            ld = loss_depth(ad.Tensor(depths[:, None]), d)
            ad.backward(loss_total(lf, ld, alpha, beta))
            return {k: p.grad.copy() for k, p in net.named_params().items()}

        g_force = grads_of(1.0, 0.0)
        g_depth = grads_of(0.0, 1.0)
        g_mixed = grads_of(0.7, 0.3)
        for name in g_mixed:
            combo = 0.7 * g_force[name] + 0.3 * g_depth[name]
            scale = np.max(np.abs(g_mixed[name])) + 1e-12
            assert np.max(np.abs(g_mixed[name] - combo)) / scale < 1e-9, name

    def test_all_ablation_variants_run_from_flags(self, tiny_data):
        variants = [
            (ModelConfig(embed_dim=16, depth=1, heads=2, decoder_channels=8), TrainConfig(batch_size=4, epochs=1, seed=0)),
            (TINY, TrainConfig(batch_size=4, epochs=1, seed=0, with_decoder=False)),
            (TINY, TrainConfig(batch_size=4, epochs=1, seed=0, frozen_backbone=True)),
            (ModelConfig(embed_dim=16, depth=1, heads=2, decoder_channels=8,
                         encoder="conv"), TrainConfig(batch_size=4, epochs=1, seed=0)),
        ]
        for mc, tc in variants:
            curve = train(tiny_data, ForceNet(mc, seed=0), tc)
            assert curve.shape == (1, 4)


class TestArrays:
    def test_shapes_and_ranges(self, tiny_data):
        images = tiny_data["images"]
        assert images.shape[1:] == (32, 32, 3)
        assert images.min() >= -1.0 and images.max() <= 1.0
        depths = tiny_data["depths"]
        assert depths.min() >= 0.0 and depths.max() <= 1.0

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            make_training_arrays([], DepthNormalizer.identity())


class TestEvaluate:
    def _sets(self):
        rng = np.random.default_rng(7)
        return {
            "cellA": {"images": rng.uniform(-1, 1, (3, 32, 32, 3)),
                      "forces": rng.uniform(0, 4, (3, 3))},
            "cellB": {"images": rng.uniform(-1, 1, (2, 32, 32, 3)),
                      "forces": rng.uniform(0, 4, (2, 3))},
        }

    def test_oracle_scores_zero_everywhere(self):
        report = evaluate(self._sets(), oracle_estimator())
        for cell in report.cells.values():
            assert cell["normalized_error"] == 0.0
            assert np.array_equal(cell["mae"], np.zeros(3))

    def test_model_estimator_reports_all_cells(self, monkeypatch):
        monkeypatch.setattr(training, "PREDICT_CHUNK", 2)
        net = ForceNet(TINY, seed=0)
        report = evaluate(self._sets(), model_estimator(net))
        assert set(report.cells) == {"cellA", "cellB"}
        for cell in report.cells.values():
            assert np.isfinite(cell["normalized_error"])
            assert cell["normalized_error"] >= 0.0

    def test_empty_sets_rejected(self):
        with pytest.raises(ContractError):
            evaluate({}, oracle_estimator())
        bad = {"cell": {"images": np.zeros((0, 32, 32, 3)), "forces": np.zeros((0, 3))}}
        with pytest.raises(ContractError):
            evaluate(bad, oracle_estimator())

    def test_report_rows_and_mean(self):
        report = EvalReport({
            "b": {"count": 1, "normalized_error": 0.3, "mae": np.array([0.1, 0.1, 0.1])},
            "a": {"count": 3, "normalized_error": 0.1, "mae": np.array([0.2, 0.2, 0.2])},
        })
        rows = report.rows()
        assert [r[0] for r in rows] == ["a", "b"]
        assert rows[0][1] == 3
        assert report.mean_normalized_error == pytest.approx(0.15)
