import numpy as np
import pytest

from tacforce import autodiff as ad
from tacforce.checkpoint import load_model, save_model
from tacforce.dataset import preprocess
from tacforce.errors import ContractError, ShapeError
from tacforce.model import Attention, ForceNet, Linear, ModelConfig
from tacforce.profiles import get_profile
from tacforce.sensor import ToolPose, compute_contact, render_tactile
from tacforce.indenters import get_indenter

from test_autodiff import chain_attention


def count_parameters(net):
    return sum(p.data.size for p in net.named_params().values())


def expected_vit_params(cfg):
    """Recount the default architecture layer by layer."""
    k = cfg.embed_dim
    p3 = cfg.patch_size ** 2 * 3
    tokens = cfg.n_patches + 1
    block = (2 * k                      # norm1
             + k * 3 * k + 3 * k        # qkv
             + k * k + k                # attn proj
             + 2 * k                    # norm2
             + k * cfg.mlp_ratio * k + cfg.mlp_ratio * k
             + cfg.mlp_ratio * k * k + k)
    return (p3 * k + k                  # patch embed
            + k + tokens * k            # cls + pos
            + cfg.depth * block
            + 2 * k)                    # final norm


def expected_head_params(cfg):
    total = 0
    w_in = cfg.embed_dim
    for w in cfg.regressor_widths:
        total += w_in * w + w + 2 * w   # linear + LayerNorm
        w_in = w
    total += w_in * 3 + 3               # output linear
    g = cfg.decoder_grid
    c0 = cfg.decoder_channels
    total += cfg.embed_dim * c0 * g * g + c0 * g * g
    c_in = c0
    for c in cfg.decoder_widths:
        total += c_in * c * 4 + c       # 2x2 transposed conv + bias
        c_in = c
    return total + c_in + 1             # 1x1 head


class TestModelConfig:
    def test_default_shapes(self):
        cfg = ModelConfig()
        assert cfg.n_patches == 16
        assert cfg.regressor_widths == (32, 16, 16, 16)
        assert cfg.decoder_grid == 2
        assert cfg.decoder_widths == (16, 8, 4, 2)

    def test_width_rules_scale(self):
        cfg = ModelConfig(embed_dim=128)
        assert cfg.regressor_widths == (64, 32, 16, 16)
        cfg = ModelConfig(decoder_channels=8)
        assert cfg.decoder_widths == (4, 2, 1, 1)

    def test_patch_must_divide_input(self):
        with pytest.raises(ContractError):
            ModelConfig(patch_size=7)

    def test_heads_must_divide_embed(self):
        with pytest.raises(ContractError):
            ModelConfig(embed_dim=30)

    def test_input_multiple_of_16(self):
        with pytest.raises(ContractError):
            ModelConfig(input_size=24, patch_size=8)

    def test_unknown_encoder(self):
        with pytest.raises(ContractError):
            ModelConfig(encoder="resnet")

    def test_positive_fields(self):
        with pytest.raises(ContractError):
            ModelConfig(depth=0)

    @pytest.mark.parametrize("field", ["patch_size", "heads"])
    def test_zero_divisor_is_a_contract_error(self, field):
        with pytest.raises(ContractError, match=f"{field} must be positive"):
            ModelConfig(**{field: 0})


class TestForceNet:
    def test_parameter_count_default(self):
        net = ForceNet()
        cfg = net.config
        expected = expected_vit_params(cfg) + expected_head_params(cfg)
        assert count_parameters(net) == expected == 228004

    def test_named_params_unique_and_trainable(self):
        net = ForceNet()
        params = net.named_params()
        assert len(params) == len(set(params))
        for name, p in params.items():
            assert p.requires_grad, name
        backbone = net.backbone_params()
        heads = net.head_params()
        assert len(backbone) + len(heads) == len(params)
        assert not (set(id(p) for p in backbone) & set(id(p) for p in heads))

    def test_forward_shapes(self):
        net = ForceNet(seed=3)
        images = np.random.default_rng(0).uniform(-1, 1, (5, 32, 32, 3))
        force, depth = net.forward(images)
        assert force.shape == (5, 3)
        assert depth.shape == (5, 1, 32, 32)

    def test_without_depth(self):
        net = ForceNet(seed=3)
        images = np.zeros((2, 32, 32, 3))
        force, depth = net.forward(images, with_depth=False)
        assert force.shape == (2, 3)
        assert depth is None

    def test_single_image_auto_batched(self):
        net = ForceNet(seed=1)
        out = net.predict_force(np.zeros((32, 32, 3)))
        assert out.shape == (1, 3)

    def test_seed_determinism(self):
        images = np.random.default_rng(2).uniform(-1, 1, (3, 32, 32, 3))
        a = ForceNet(seed=11).predict_force(images)
        b = ForceNet(seed=11).predict_force(images)
        assert np.array_equal(a, b)
        c = ForceNet(seed=12).predict_force(images)
        assert not np.array_equal(a, c)

    def test_identical_rows_identical_outputs(self):
        net = ForceNet(seed=4)
        img = np.random.default_rng(3).uniform(-1, 1, (32, 32, 3))
        batch = np.stack([img, img])
        force, depth = net.forward(batch)
        assert np.array_equal(force.data[0], force.data[1])
        assert np.array_equal(depth.data[0], depth.data[1])

    def test_batch_permutation(self):
        net = ForceNet(seed=5)
        images = np.random.default_rng(4).uniform(-1, 1, (4, 32, 32, 3))
        perm = [2, 0, 3, 1]
        straight = net.predict_force(images)
        shuffled = net.predict_force(images[perm])
        assert np.array_equal(straight[perm], shuffled)

    def test_zero_final_linear_zeroes_force(self):
        net = ForceNet(seed=6)
        net.regressor.out.weight.data[:] = 0.0
        net.regressor.out.bias.data[:] = 0.0
        out = net.predict_force(np.random.default_rng(5).uniform(-1, 1, (2, 32, 32, 3)))
        assert np.array_equal(out, np.zeros((2, 3)))

    def test_zero_head_zeroes_depth(self):
        net = ForceNet(seed=6)
        net.decoder.head_kernel.data[:] = 0.0
        net.decoder.head_bias.data[:] = 0.0
        _, depth = net.forward(np.random.default_rng(6).uniform(-1, 1, (2, 32, 32, 3)))
        assert np.array_equal(depth.data, np.zeros((2, 1, 32, 32)))

    def test_every_param_gets_gradient(self):
        net = ForceNet(seed=7)
        images = np.random.default_rng(7).uniform(-1, 1, (2, 32, 32, 3))
        force, depth = net.forward(images)
        loss = ad.add(ad.mean(ad.square(force)), ad.mean(ad.square(depth)))
        ad.backward(loss)
        dead = [name for name, p in net.named_params().items()
                if p.grad is None or not np.any(p.grad)]
        assert dead == []

    def test_decoder_gradient_wrt_features(self):
        net = ForceNet(seed=8)
        x = ad.parameter(np.random.default_rng(8).normal(size=(2, 64)))
        depth = net.decoder(x)
        ad.backward(ad.mean(ad.square(depth)))
        assert x.grad is not None and np.any(x.grad)

    def test_predict_matches_forward(self):
        net = ForceNet(seed=9)
        images = np.random.default_rng(9).uniform(-1, 1, (3, 32, 32, 3))
        force, _ = net.forward(images, with_depth=False)
        assert np.array_equal(net.predict_force(images), force.data)

    def test_bad_shapes_rejected(self):
        net = ForceNet()
        with pytest.raises(ShapeError):
            net.encode(np.zeros((2, 31, 32, 3)))
        with pytest.raises(ShapeError):
            net.encode(np.zeros((2, 32, 32, 4)))
        with pytest.raises(ShapeError):
            net.encode(np.zeros((2, 2, 32, 32, 3)))

    def test_checkpoint_round_trip(self, tmp_path):
        path = tmp_path / "net.fafw"
        source = ForceNet(seed=21)
        save_model(path, source.named_params())
        target = ForceNet(seed=99)
        images = np.random.default_rng(10).uniform(-1, 1, (2, 32, 32, 3))
        assert not np.array_equal(target.predict_force(images),
                                  source.predict_force(images))
        leftover = load_model(path, target.named_params())
        assert leftover == {}
        assert np.array_equal(target.predict_force(images),
                              source.predict_force(images))


class TestConvEncoder:
    def test_parameter_count(self):
        cfg = ModelConfig(encoder="conv")
        net = ForceNet(cfg)
        plan = ((3, 16, 4), (16, 32, 3), (32, 48, 3), (48, 64, 3))
        conv = sum(co * ci * k * k + co for ci, co, k in plan)
        assert count_parameters(net) == conv + expected_head_params(cfg) == 61444

    def test_forward_contract_matches_vit(self):
        net = ForceNet(ModelConfig(encoder="conv"), seed=13)
        images = np.random.default_rng(11).uniform(-1, 1, (3, 32, 32, 3))
        feats = net.encode(images)
        assert feats.shape == (3, 64)
        force, depth = net.forward(images)
        assert force.shape == (3, 3)
        assert depth.shape == (3, 1, 32, 32)

    def test_seed_determinism(self):
        images = np.random.default_rng(12).uniform(-1, 1, (2, 32, 32, 3))
        a = ForceNet(ModelConfig(encoder="conv"), seed=2).predict_force(images)
        b = ForceNet(ModelConfig(encoder="conv"), seed=2).predict_force(images)
        assert np.array_equal(a, b)

    def test_requires_32px_input(self):
        with pytest.raises(ContractError):
            ForceNet(ModelConfig(input_size=48, patch_size=8, encoder="conv"))

    def test_gradients_flow(self):
        net = ForceNet(ModelConfig(encoder="conv"), seed=14)
        images = np.random.default_rng(13).uniform(-1, 1, (2, 32, 32, 3))
        force, _ = net.forward(images, with_depth=False)
        ad.backward(ad.mean(ad.square(force)))
        dead = [name for name, p in net.encoder.named_params()
                if p.grad is None or not np.any(p.grad)]
        assert dead == []


# every config the package trains: the default, the weighing net, the
# byte oracle's tiny net, and the conv encoder with the default and tiny heads
CONFIGS = {
    "default": ModelConfig(),
    "weighing": ModelConfig(embed_dim=32, depth=2, heads=4, decoder_channels=16),
    "tiny": ModelConfig(embed_dim=16, depth=1, heads=2, decoder_channels=8),
    "conv": ModelConfig(encoder="conv"),
    "conv-tiny": ModelConfig(embed_dim=16, depth=1, heads=2, decoder_channels=8,
                             encoder="conv"),
}


def train_grads(net, images):
    """Forward, backward, and every parameter's gradient bytes."""
    force, depth = net.forward(images)
    ad.backward(ad.add(ad.mean(ad.square(force)), ad.mean(ad.square(depth))))
    return {name: p.grad.tobytes() for name, p in net.named_params().items()}


def einsum_scatter(g, w, stride, out_hw):
    B, _, Ho, Wo = g.shape
    out = np.zeros((B, w.shape[1], *out_hw))
    for p in range(w.shape[2]):
        for q in range(w.shape[3]):
            out[:, :, p:p + stride * Ho:stride, q:q + stride * Wo:stride] += np.einsum(
                "bghw,gc->bchw", g, w[:, :, p, q], optimize=True)
    return out


# each conv site and the np.einsum(..., optimize=True) it replaced
EINSUM_SITES = {
    "_conv_gather": lambda x, w, stride: np.einsum(
        "bchwpq,ocpq->bohw", ad._conv_windows(x, w.shape[2], w.shape[3], stride), w,
        optimize=True),
    "_conv_scatter": einsum_scatter,
    "_kernel_grad": lambda a, win: np.einsum("bnhwpq,bmhw->mnpq", win, a, optimize=True),
}


class TestFusedOpsInTheModel:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    @pytest.mark.parametrize("batch", [1, 3])
    def test_conv_sites_match_einsum(self, monkeypatch, name, batch):
        """Every conv product a training step computes, including the 1x1
        single-output head and the one-channel decoder stages, has the bits
        of the einsum it replaced."""
        calls = []
        for site in EINSUM_SITES:
            def record(*args, _site=site, _fn=getattr(ad, site)):
                out = _fn(*args)
                calls.append((_site, args, out))
                return out
            monkeypatch.setattr(ad, site, record)
        images = np.random.default_rng(batch).uniform(-1, 1, (batch, 32, 32, 3))
        train_grads(ForceNet(CONFIGS[name], seed=1), images)
        assert {site for site, _, _ in calls} == set(EINSUM_SITES)
        for site, args, out in calls:
            assert out.tobytes() == EINSUM_SITES[site](*args).tobytes(), site

    @pytest.mark.parametrize("name", ["default", "weighing", "tiny"])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_vit_matches_the_op_chains(self, monkeypatch, name, batch):
        """A training step's forces and gradients are the same bytes with the
        fused `linear` and `attention` as with the op chains they replaced."""
        images = np.random.default_rng(batch).uniform(-1, 1, (batch, 32, 32, 3))
        fused = train_grads(ForceNet(CONFIGS[name], seed=2), images)
        monkeypatch.setattr(Linear, "__call__",
                            lambda self, x: ad.add(ad.matmul(x, self.weight), self.bias))
        monkeypatch.setattr(Attention, "__call__",
                            lambda self, x: self.proj(chain_attention(self.qkv(x), self.heads)))
        assert train_grads(ForceNet(CONFIGS[name], seed=2), images) == fused


class TestSensorToModel:
    @pytest.mark.parametrize("profile_name", ["sensor1-gel1", "sensor3-gel2"])
    def test_rendered_frame_feeds_the_net(self, profile_name):
        profile = get_profile(profile_name)
        tool = get_indenter("small_sphere")
        contact = compute_contact(tool, ToolPose(), 0.8, profile=profile)
        image, depth = render_tactile(contact, profile)
        from tacforce.dataset import DepthNormalizer
        tensor, target = preprocess(image, profile.background(*image.shape[:2]),
                                    depth, DepthNormalizer.identity())
        net = ForceNet(seed=0)
        out = net.predict_force(np.stack([tensor]))
        assert out.shape == (1, 3)
        assert np.isfinite(out).all()
        force, pred = net.forward(np.stack([tensor]))
        assert pred.shape == (1, 1, 32, 32)
        assert target.shape == (32, 32)
