"""Force-and-depth network: a small ViT encoder with two heads.

The encoder turns a preprocessed tactile image into a K-dim feature
vector (CLS token of a pre-LayerNorm transformer). Two heads read it:

* a regressor (four bottleneck layers: linear + LayerNorm + GELU, then
  a final linear) emitting the 3-axis contact force in Newtons;
* a decoder (linear projection to a coarse grid, then four stride-2
  transposed convolutions with Leaky ReLU) reconstructing the
  normalized gel depth map. The decoder has no output activation so
  saturation in the labels cannot kill its gradients.

A strided-convolution encoder with the same output contract is
available as an ablation baseline. All parameters initialize from a
truncated normal (std 0.02) with per-component seeded streams, so
swapping one component never shifts another's initialization.
"""

import dataclasses

import numpy as np

from . import autodiff as ad
from .errors import ContractError, ShapeError


@dataclasses.dataclass(frozen=True)
class ModelConfig:
    input_size: int = 32
    patch_size: int = 8
    embed_dim: int = 64
    depth: int = 4
    heads: int = 4
    mlp_ratio: int = 4
    decoder_channels: int = 32
    encoder: str = "vit"

    def __post_init__(self):
        for field in dataclasses.fields(self):
            if field.type is int and getattr(self, field.name) < 1:
                raise ContractError(f"{field.name} must be positive")
        if self.input_size % self.patch_size != 0:
            raise ContractError("input size must be divisible by the patch size")
        if self.embed_dim % self.heads != 0:
            raise ContractError("embed dim must be divisible by the head count")
        if self.input_size % 16 != 0:
            raise ContractError("decoder upsamples 16x; input size must be a multiple of 16")
        if self.encoder not in ("vit", "conv"):
            raise ContractError(f"unknown encoder kind {self.encoder!r}")

    @property
    def n_patches(self):
        return (self.input_size // self.patch_size) ** 2

    @property
    def regressor_widths(self):
        """Four bottleneck widths, halving from K with a floor of 16."""
        widths = []
        w = self.embed_dim
        for _ in range(4):
            w = max(w // 2, 16)
            widths.append(w)
        return tuple(widths)

    @property
    def decoder_grid(self):
        return self.input_size // 16

    @property
    def decoder_widths(self):
        """Output channels of the four upsampling stages (halving)."""
        widths = []
        c = self.decoder_channels
        for _ in range(4):
            c = max(c // 2, 1)
            widths.append(c)
        return tuple(widths)


class Linear:
    def __init__(self, n_in, n_out, rng):
        self.weight = ad.parameter(ad.trunc_normal((n_in, n_out), 0.02, rng))
        self.bias = ad.parameter(np.zeros(n_out))

    def __call__(self, x):
        return ad.linear(x, self.weight, self.bias)

    def named_params(self, prefix):
        return [(f"{prefix}.weight", self.weight), (f"{prefix}.bias", self.bias)]


class LayerNorm:
    def __init__(self, dim):
        self.gain = ad.parameter(np.ones(dim))
        self.bias = ad.parameter(np.zeros(dim))

    def __call__(self, x):
        return ad.layer_norm(x, self.gain, self.bias)

    def named_params(self, prefix):
        return [(f"{prefix}.gain", self.gain), (f"{prefix}.bias", self.bias)]


class Attention:
    """Multi-head self-attention: a fused q/k/v projection, `ad.attention`
    over `heads` heads of dim/heads features each, and an output
    projection. Tokens (B, T, dim) in, (B, T, dim) out."""

    def __init__(self, dim, heads, rng):
        self.heads = heads
        self.qkv = Linear(dim, 3 * dim, rng)
        self.proj = Linear(dim, dim, rng)

    def __call__(self, x):
        return self.proj(ad.attention(self.qkv(x), self.heads))

    def named_params(self, prefix):
        return (self.qkv.named_params(f"{prefix}.qkv")
                + self.proj.named_params(f"{prefix}.proj"))


class Mlp:
    def __init__(self, dim, hidden, rng):
        self.fc1 = Linear(dim, hidden, rng)
        self.fc2 = Linear(hidden, dim, rng)

    def __call__(self, x):
        return self.fc2(ad.gelu(self.fc1(x)))

    def named_params(self, prefix):
        return self.fc1.named_params(f"{prefix}.fc1") + self.fc2.named_params(f"{prefix}.fc2")


class Block:
    """Pre-LayerNorm transformer block: x + attn(ln(x)), x + mlp(ln(x))."""

    def __init__(self, dim, heads, mlp_ratio, rng):
        self.norm1 = LayerNorm(dim)
        self.attn = Attention(dim, heads, rng)
        self.norm2 = LayerNorm(dim)
        self.mlp = Mlp(dim, mlp_ratio * dim, rng)

    def __call__(self, x):
        x = ad.add(x, self.attn(self.norm1(x)))
        return ad.add(x, self.mlp(self.norm2(x)))

    def named_params(self, prefix):
        return (self.norm1.named_params(f"{prefix}.norm1")
                + self.attn.named_params(f"{prefix}.attn")
                + self.norm2.named_params(f"{prefix}.norm2")
                + self.mlp.named_params(f"{prefix}.mlp"))


def _check_images(images, size):
    images = np.asarray(images, dtype=np.float64)
    if images.ndim == 3:
        images = images[None]
    if images.ndim != 4 or images.shape[1:] != (size, size, 3):
        raise ShapeError("encode", images.shape,
                         detail=f"expected (batch, {size}, {size}, 3)")
    return images


class ViTEncoder:
    def __init__(self, config, rng):
        self.config = config
        k = config.embed_dim
        p = config.patch_size
        self.patch = Linear(p * p * 3, k, rng)
        self.cls = ad.parameter(ad.trunc_normal((1, 1, k), 0.02, rng))
        self.pos = ad.parameter(ad.trunc_normal((1, config.n_patches + 1, k), 0.02, rng))
        self.blocks = [Block(k, config.heads, config.mlp_ratio, rng)
                       for _ in range(config.depth)]
        self.norm = LayerNorm(k)

    def __call__(self, images):
        cfg = self.config
        images = _check_images(images, cfg.input_size)
        b = images.shape[0]
        p = cfg.patch_size
        n_side = cfg.input_size // p
        patches = (images.reshape(b, n_side, p, n_side, p, 3)
                   .transpose(0, 1, 3, 2, 4, 5)
                   .reshape(b, cfg.n_patches, p * p * 3))
        tokens = self.patch(ad.Tensor(patches))
        cls = ad.add(self.cls, ad.Tensor(np.zeros((b, 1, cfg.embed_dim))))
        x = ad.add(ad.concat([cls, tokens], axis=1), self.pos)
        for block in self.blocks:
            x = block(x)
        x = self.norm(x)
        return ad.slice_(x, (slice(None), 0))

    def named_params(self, prefix="encoder"):
        out = self.patch.named_params(f"{prefix}.patch")
        out += [(f"{prefix}.cls", self.cls), (f"{prefix}.pos", self.pos)]
        for i, block in enumerate(self.blocks):
            out += block.named_params(f"{prefix}.block{i}")
        return out + self.norm.named_params(f"{prefix}.norm")


class ConvEncoder:
    """Strided-convolution stand-in for the ViT (ablation baseline)."""

    _PLAN = ((3, 16, 4), (16, 32, 3), (32, 48, 3), (48, None, 3))

    def __init__(self, config, rng):
        if config.input_size != 32:
            raise ContractError("the conv encoder variant is defined for input size 32")
        self.config = config
        self.kernels = []
        self.biases = []
        for c_in, c_out, ksize in self._PLAN:
            c_out = c_out or config.embed_dim
            self.kernels.append(ad.parameter(
                ad.trunc_normal((c_out, c_in, ksize, ksize), 0.02, rng)))
            self.biases.append(ad.parameter(np.zeros((1, c_out, 1, 1))))

    def __call__(self, images):
        images = _check_images(images, self.config.input_size)
        x = ad.Tensor(images.transpose(0, 3, 1, 2))
        for i, (kern, bias) in enumerate(zip(self.kernels, self.biases)):
            x = ad.add(ad.conv2d(x, kern, stride=2), bias)
            if i < len(self.kernels) - 1:
                x = ad.leaky_relu(x)
        return ad.reshape(x, (x.shape[0], self.config.embed_dim))

    def named_params(self, prefix="encoder"):
        out = []
        for i, (kern, bias) in enumerate(zip(self.kernels, self.biases)):
            out += [(f"{prefix}.conv{i}.kernel", kern), (f"{prefix}.conv{i}.bias", bias)]
        return out


class Regressor:
    """Four bottlenecks (linear + LayerNorm + GELU) and a 3-output linear."""

    def __init__(self, config, rng):
        widths = (config.embed_dim,) + config.regressor_widths
        self.bottlenecks = []
        for w_in, w_out in zip(widths, widths[1:]):
            self.bottlenecks.append((Linear(w_in, w_out, rng), LayerNorm(w_out)))
        self.out = Linear(widths[-1], 3, rng)

    def __call__(self, x):
        for linear, norm in self.bottlenecks:
            x = ad.gelu(norm(linear(x)))
        return self.out(x)

    def named_params(self, prefix="regressor"):
        out = []
        for i, (linear, norm) in enumerate(self.bottlenecks):
            out += linear.named_params(f"{prefix}.bottleneck{i}.linear")
            out += norm.named_params(f"{prefix}.bottleneck{i}.norm")
        return out + self.out.named_params(f"{prefix}.out")


class Decoder:
    """Project features to a coarse grid, then upsample 16x to a depth map."""

    def __init__(self, config, rng):
        self.config = config
        g = config.decoder_grid
        c0 = config.decoder_channels
        self.proj = Linear(config.embed_dim, c0 * g * g, rng)
        self.kernels = []
        self.biases = []
        c_in = c0
        for c_out in config.decoder_widths:
            self.kernels.append(ad.parameter(ad.trunc_normal((c_in, c_out, 2, 2), 0.02, rng)))
            self.biases.append(ad.parameter(np.zeros((1, c_out, 1, 1))))
            c_in = c_out
        self.head_kernel = ad.parameter(ad.trunc_normal((1, c_in, 1, 1), 0.02, rng))
        self.head_bias = ad.parameter(np.zeros((1, 1, 1, 1)))

    def __call__(self, x):
        cfg = self.config
        g = cfg.decoder_grid
        h = ad.reshape(self.proj(x), (x.shape[0], cfg.decoder_channels, g, g))
        for kern, bias in zip(self.kernels, self.biases):
            h = ad.leaky_relu(ad.add(ad.conv_transpose2d(h, kern, stride=2), bias))
        return ad.add(ad.conv2d(h, self.head_kernel), self.head_bias)

    def named_params(self, prefix="decoder"):
        out = self.proj.named_params(f"{prefix}.proj")
        for i, (kern, bias) in enumerate(zip(self.kernels, self.biases)):
            out += [(f"{prefix}.up{i}.kernel", kern), (f"{prefix}.up{i}.bias", bias)]
        return out + [(f"{prefix}.head.kernel", self.head_kernel),
                      (f"{prefix}.head.bias", self.head_bias)]


class ForceNet:
    """Encoder plus force-regression and depth-reconstruction heads.

    Components draw from independent seeded streams, so the encoder
    weights for seed s are identical whether or not anything else
    changes, and two models with the same seed are identical.
    """

    def __init__(self, config=None, seed=0):
        self.config = config or ModelConfig()
        streams = np.random.SeedSequence(seed).spawn(3)
        rngs = [np.random.default_rng(s) for s in streams]
        if self.config.encoder == "vit":
            self.encoder = ViTEncoder(self.config, rngs[0])
        else:
            self.encoder = ConvEncoder(self.config, rngs[0])
        self.regressor = Regressor(self.config, rngs[1])
        self.decoder = Decoder(self.config, rngs[2])

    def encode(self, images):
        return self.encoder(images)

    def regress(self, x):
        return self.regressor(x)

    def forward(self, images, with_depth=True):
        x = self.encode(images)
        force = self.regressor(x)
        depth = self.decoder(x) if with_depth else None
        return force, depth

    def predict_force(self, images):
        """Inference helper: (B, 3) numpy forces, no tape."""
        with ad.no_grad():
            return self.regressor(self.encode(images)).data

    def named_params(self):
        pairs = (self.encoder.named_params() + self.regressor.named_params()
                 + self.decoder.named_params())
        names = [n for n, _ in pairs]
        if len(set(names)) != len(names):
            raise ContractError("duplicate parameter names")
        return dict(pairs)

    def backbone_params(self):
        return [p for _, p in self.encoder.named_params()]

    def head_params(self):
        return ([p for _, p in self.regressor.named_params()]
                + [p for _, p in self.decoder.named_params()])
