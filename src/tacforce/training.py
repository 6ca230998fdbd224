"""Losses, the training loop, and evaluation metrics.

The objective is a weighted sum of a force term (mean L1 norm of the
3-vector residual) and a depth term (mean Euclidean norm of the
flattened depth-map residual). The loop runs Adam with two parameter
groups so the encoder and the heads can use different learning rates.
Those rates are the initial ones: the loop holds them for the first
four fifths of the epochs and runs the last fifth at one tenth of them,
so an L1 objective settles instead of bouncing around its minimum.
The ablation variants (no decoder, frozen backbone, conv encoder) are
all reachable through config flags alone.
"""

import dataclasses

import numpy as np

from . import autodiff as ad
from . import dataset as dsmod
from .errors import ContractError, TrainingDiverged
from .optim import Adam
from .profiles import PROFILE_NAMES, get_profile

# Full-scale force range per axis (N); the denominator of the
# normalized error metric.
FORCE_RANGES = np.array([4.0, 4.0, 15.0])


@dataclasses.dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one `train` run.

    `backbone_lr` and `head_lr` are the initial Adam rates of the
    encoder and of the heads; `train` decays both 10x for the last
    fifth of the epochs (see `lr_scale`).
    """

    batch_size: int = 16
    epochs: int = 100
    backbone_lr: float = 5e-5
    head_lr: float = 1e-5
    alpha: float = 1.0     # force-loss weight
    beta_w: float = 1.0    # depth-loss weight
    seed: int = 0
    frozen_backbone: bool = False
    with_decoder: bool = True

    def __post_init__(self):
        for name in ("backbone_lr", "head_lr", "alpha", "beta_w"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ContractError(f"{name} must be finite, got {value}")
            # lr = 0 is allowed so "train for zero effect" stays expressible
            if value < 0:
                raise ContractError(f"{name} must be non-negative, got {value}")
        if self.alpha + self.beta_w <= 0:
            raise ContractError("at least one loss weight must be positive")
        if self.batch_size < 1:
            raise ContractError("batch size must be at least 1")
        if self.epochs < 0:
            raise ContractError("epochs must be non-negative")


def loss_force(target, pred):
    """Mean over the batch of |residual|_1 for the 3-vector force."""
    diff = ad.abs_(ad.sub(pred, target))
    return ad.mean(ad.sum_(diff, axis=1))


def loss_depth(target, pred):
    """Mean over the batch of the Euclidean norm of the depth residual."""
    diff = ad.sub(pred, target)
    flat = ad.reshape(diff, (diff.shape[0], -1))
    return ad.mean(ad.sqrt(ad.sum_(ad.square(flat), axis=1)))


def loss_total(l_force, l_depth, alpha, beta_w):
    return ad.add(ad.mul(l_force, alpha), ad.mul(l_depth, beta_w))


def normalized_error(target, pred):
    """Force error as a fraction of the per-axis full-scale range.

    Mean over axes of |residual| / range, averaged over the batch.
    """
    target = np.atleast_2d(np.asarray(target, dtype=np.float64))
    pred = np.atleast_2d(np.asarray(pred, dtype=np.float64))
    return float((np.abs(pred - target) / FORCE_RANGES).mean())


def per_axis_mae(target, pred):
    target = np.atleast_2d(np.asarray(target, dtype=np.float64))
    pred = np.atleast_2d(np.asarray(pred, dtype=np.float64))
    return np.abs(pred - target).mean(axis=0)


# -- data assembly ----------------------------------------------------------

# Samples preprocessed together. It bounds the chunk's buffers (about
# 0.2 MB a sample on 64 x 48 frames) while paying each array
# operation's per-call cost once per chunk. On collect-round samples
# (2 vCPU, one BLAS thread) the buffers above the output held 0.9, 1.7,
# 3.5 and 6.9 MB at chunks of 4, 8, 16 and 32, and took 0.105, 0.094,
# 0.095 and 0.10 ms a sample: 8 is the smallest chunk that loses no speed.
_PREPROCESS_CHUNK = 8


def make_training_arrays(samples, normalizer, size=32):
    """Preprocess raw samples into model-ready arrays.

    The one path from samples to network inputs: training, evaluation,
    calibration and the task estimators all build their arrays here.
    `size` must be the network's `config.input_size`; images and depths
    both come out at it, since the decoder reconstructs depth at the
    input size. Returns a dict with images (N, S, S, 3) in [-1, 1],
    forces (N, 3), and depths (N, S, S) in [0, 1].

    Samples are grouped by image shape and profile and preprocessed in
    chunks of up to `_PREPROCESS_CHUNK` by `dataset.preprocess_chunk`,
    which subtracts the group's one background from every frame by
    broadcasting; each row lands at its sample's position and holds
    exactly what `dataset.preprocess` gives that sample alone.
    """
    if not samples:
        raise ContractError("cannot assemble arrays from an empty sample list")
    images = np.empty((len(samples), size, size, 3))
    depths = np.empty((len(samples), size, size))
    groups = {}
    for i, s in enumerate(samples):
        groups.setdefault((s.image.shape, s.profile_id), []).append(i)
    for ((h, w, _), profile_id), rows in groups.items():
        background = get_profile(PROFILE_NAMES[profile_id]).background(h, w)[..., None]
        for start in range(0, len(rows), _PREPROCESS_CHUNK):
            chunk = rows[start:start + _PREPROCESS_CHUNK]
            group = [samples[i] for i in chunk]
            t, d = dsmod.preprocess_chunk(
                np.stack([s.image for s in group], axis=-1), background,
                np.stack([s.depth for s in group], axis=-1), normalizer, size)
            images[chunk] = np.moveaxis(t, -1, 0)
            depths[chunk] = np.moveaxis(d, -1, 0)
    return {
        "images": images,
        "forces": np.stack([s.force.astype(np.float64) for s in samples]),
        "depths": depths,
    }


# -- the loop ---------------------------------------------------------------

def build_optimizer(net, cfg):
    """Adam over two groups: encoder at backbone_lr, heads at head_lr.

    With a frozen backbone the encoder parameters are marked
    requires_grad=False and left out entirely, so no state is ever
    created for them.
    """
    groups = []
    if cfg.frozen_backbone:
        for p in net.backbone_params():
            p.requires_grad = False
    else:
        groups.append({"params": net.backbone_params(), "lr": cfg.backbone_lr})
    groups.append({"params": net.head_params(), "lr": cfg.head_lr})
    return Adam(groups)


def train_step(net, opt, images, forces, depths, cfg):
    """One forward/backward/update; returns (L_F, L_D, L) floats.

    Raises TrainingDiverged before the update, leaving the parameters
    and Adam's state untouched, if the loss or any gradient of a
    parameter the optimizer steps is non-finite.
    """
    pred_force, pred_depth = net.forward(images, with_depth=cfg.with_decoder)
    l_f = loss_force(ad.Tensor(forces), pred_force)
    if cfg.with_decoder:
        labels = ad.Tensor(depths[:, None, :, :])
        l_d = loss_depth(labels, pred_depth)
    else:
        l_d = ad.Tensor(0.0)
    total = loss_total(l_f, l_d, cfg.alpha, cfg.beta_w)
    values = (float(l_f.data), float(l_d.data), float(total.data))
    if not np.isfinite(values).all():
        raise TrainingDiverged(-1, -1)
    opt.zero_grad()
    ad.backward(total)
    for group in opt.groups:
        for p in group["params"]:
            if p.grad is not None and not np.isfinite(p.grad).all():
                name = next(k for k, q in net.named_params().items() if q is p)
                raise TrainingDiverged(-1, -1, what=f"gradient of {name}")
    opt.step()
    return values


def lr_scale(epoch, epochs):
    """Learning-rate multiplier for 0-based `epoch` of an `epochs` run.

    1 for the first ceil(0.8 * epochs) epochs and 0.1 from then on, so
    runs of up to four epochs never decay.
    """
    return 1.0 if epoch < -(-4 * epochs // 5) else 0.1


def train(data, net, cfg):
    """Train in place; returns the per-epoch loss curve (epochs, 4).

    Each epoch runs both parameter groups at their configured rates
    times `lr_scale`, so the last fifth of the epochs runs at one tenth.
    Curve columns are (epoch, L_F, L_D, L), each loss averaged over the
    epoch's batches. Deterministic in (data, net seed, cfg.seed).
    """
    n = len(data["images"])
    if n == 0:
        raise ContractError("training set is empty")
    opt = build_optimizer(net, cfg)
    base_lrs = [g["lr"] for g in opt.groups]
    rng = np.random.default_rng(cfg.seed)
    curve = np.zeros((cfg.epochs, 4))
    for epoch in range(cfg.epochs):
        for group, lr in zip(opt.groups, base_lrs):
            group["lr"] = lr * lr_scale(epoch, cfg.epochs)
        order = rng.permutation(n)
        sums = np.zeros(3)
        batches = 0
        for start in range(0, n, cfg.batch_size):
            sel = order[start:start + cfg.batch_size]
            try:
                values = train_step(net, opt, data["images"][sel], data["forces"][sel],
                                    data["depths"][sel], cfg)
            except TrainingDiverged as err:
                raise TrainingDiverged(epoch, batches, err.what) from None
            sums += values
            batches += 1
        curve[epoch] = (epoch, *(sums / batches))
    return curve


# -- evaluation -------------------------------------------------------------

# rows per no-tape inference pass; a BLAS may round a 2-D GEMM
# differently with its row count, so every reading of a model's output
# goes through `predict_in_chunks`
PREDICT_CHUNK = 64


def predict_in_chunks(fn, rows):
    """`fn` over PREDICT_CHUNK-row slices of `rows`, concatenated, no tape.

    `fn` maps an array of rows to an array with one row per input row.
    """
    chunk = PREDICT_CHUNK
    with ad.no_grad():
        return np.concatenate([fn(rows[i:i + chunk]) for i in range(0, len(rows), chunk)])


def model_estimator(net):
    """Batched no-tape force predictor for a trained network."""
    return lambda cell: predict_in_chunks(
        net.predict_force, np.asarray(cell["images"], dtype=np.float64))


def oracle_estimator():
    """The pass-through estimator: report the recorded force itself."""
    return lambda cell: cell["forces"]


@dataclasses.dataclass
class EvalReport:
    """Per-cell metrics: cells map a name to count, error, and MAE."""

    cells: dict

    @property
    def mean_normalized_error(self):
        total = sum(c["count"] for c in self.cells.values())
        return sum(c["count"] * c["normalized_error"] for c in self.cells.values()) / total

    def rows(self):
        """CSV-friendly rows: (cell, count, normalized_error, mae x, y, z)."""
        out = []
        for name in sorted(self.cells):
            c = self.cells[name]
            out.append((name, c["count"], c["normalized_error"], *c["mae"]))
        return out


def evaluate(eval_sets, predict):
    """Run an estimator over named evaluation cells.

    ``eval_sets`` maps a cell name to a dict with "images" and
    "forces"; ``predict`` maps a cell to (B, 3) forces. The oracle
    estimator passes the truth through and every cell reports zero.
    """
    if not eval_sets:
        raise ContractError("no evaluation cells given")
    cells = {}
    for name, cell in eval_sets.items():
        forces = np.asarray(cell["forces"], dtype=np.float64)
        if forces.size == 0:
            raise ContractError(f"evaluation cell {name!r} is empty")
        pred = np.asarray(predict(cell), dtype=np.float64)
        cells[name] = {
            "count": int(len(forces)),
            "normalized_error": normalized_error(forces, pred),
            "mae": per_axis_mae(forces, pred),
        }
    return EvalReport(cells)
