"""Dense float64 tensors with reverse-mode automatic differentiation.

The op set is the minimum needed by the force/depth network: matmul,
broadcast add/sub/mul, softmax, layer norm, GELU (exact Gaussian-CDF
form), leaky ReLU, strided 2D convolution and its stride-s adjoint
(transposed convolution, output size (i-1)*s + k), reshape/transpose/
concat/slicing, and sum/mean/abs/square/sqrt reductions.

The graph is a dynamic tape: every op result remembers its parents and
a VJP closure, and `backward` replays the tape in reverse construction
order. Values are immutable after creation; gradients accumulate into
`.grad` of `requires_grad` leaves until the optimizer's `zero_grad`.
A VJP returns None, computing nothing, for a parent that needs no
gradient, such as a constant input, a constant scale or a frozen
parameter.
"""

from __future__ import annotations

import contextlib
import itertools
import math

import numpy as np
from scipy.special import erf

from .errors import ContractError, ShapeError

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

_seq_counter = itertools.count()
_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (inference mode)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A dense float64 array plus optional gradient buffer.

    Leaves are created directly; op results carry the tape metadata
    (`op`, parents, VJP) needed for `backward`.
    """

    __slots__ = ("data", "requires_grad", "grad", "op", "_parents", "_vjp", "_seq")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.op = "leaf"
        self._parents = ()
        self._vjp = None
        self._seq = next(_seq_counter)

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self.op!r}, requires_grad={self.requires_grad})"

    # -- operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return mul(_as_tensor(other), self)

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise TypeError("tensor/tensor division is not part of the op set")
        return mul(self, _as_tensor(1.0 / float(other)))

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, _as_tensor(other))

    def __getitem__(self, key):
        return slice_(self, key)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return transpose(self, axes)

    def sum(self, axis=None, keepdims=False):
        return sum_(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return mean(self, axis=axis, keepdims=keepdims)

    def backward(self):
        backward(self)


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data, parents, vjp, op):
    """Wrap an op result; record the tape node only when it can need grads."""
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out.op = op
        out._parents = tuple(parents)
        out._vjp = vjp
    return out


def _unbroadcast(g, shape):
    """Reduce gradient `g` back to `shape` (inverse of numpy broadcasting)."""
    shape = tuple(shape)
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def backward(loss):
    """Accumulate d(loss)/d(leaf) into every reachable requires_grad leaf.

    Repeated calls without the optimizer's `zero_grad` accumulate,
    matching the usual gradient-descent batching contract.
    """
    if not isinstance(loss, Tensor):
        raise ContractError("backward expects a Tensor")
    if loss.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return

    nodes = []
    seen = set()
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(p for p in node._parents if p.requires_grad)
    nodes.sort(key=lambda n: n._seq, reverse=True)

    grads = {id(loss): np.ones_like(loss.data)}
    for node in nodes:
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._vjp is None:
            if node.grad is None:
                node.grad = g.copy()
            else:
                node.grad = node.grad + g
            continue
        parent_grads = node._vjp(g)
        for parent, pg in zip(node._parents, parent_grads):
            if pg is None or not parent.requires_grad:
                continue
            if id(parent) in grads:
                grads[id(parent)] = grads[id(parent)] + pg
            else:
                grads[id(parent)] = pg


# -- elementwise / broadcast ops ----------------------------------------

def _broadcast(op, ufunc, a, b):
    """ufunc over a and b broadcast together; a mismatch is a ShapeError."""
    try:
        return ufunc(a.data, b.data)
    except ValueError:
        raise ShapeError(op, a.shape, b.shape) from None


def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    return _make(
        _broadcast("add", np.add, a, b),
        (a, b),
        lambda g: (_unbroadcast(g, a.shape) if a.requires_grad else None,
                   _unbroadcast(g, b.shape) if b.requires_grad else None),
        "add",
    )


def sub(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    return _make(
        _broadcast("sub", np.subtract, a, b),
        (a, b),
        lambda g: (_unbroadcast(g, a.shape) if a.requires_grad else None,
                   _unbroadcast(-g, b.shape) if b.requires_grad else None),
        "sub",
    )


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    return _make(
        _broadcast("mul", np.multiply, a, b),
        (a, b),
        lambda g: (
            _unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
            _unbroadcast(g * a.data, b.shape) if b.requires_grad else None,
        ),
        "mul",
    )


def neg(a):
    a = _as_tensor(a)
    return _make(-a.data, (a,), lambda g: (-g,), "neg")


def matmul(a, b):
    """Matrix product with numpy stacking semantics (1-D operands promoted)."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim == 0 or b.ndim == 0:
        raise ShapeError("matmul", a.shape, b.shape, detail="operands must be >= 1-D")
    ka = a.shape[-1]
    kb = b.shape[-2] if b.ndim >= 2 else b.shape[0]
    if ka != kb:
        raise ShapeError("matmul", a.shape, b.shape, detail="inner dims differ")
    try:
        out = np.matmul(a.data, b.data)
    except ValueError:
        raise ShapeError("matmul", a.shape, b.shape) from None

    def vjp(g):
        ad = a.data if a.ndim >= 2 else a.data[None, :]
        bd = b.data if b.ndim >= 2 else b.data[:, None]
        gd = g
        if a.ndim == 1:
            gd = np.expand_dims(gd, -2)
        if b.ndim == 1:
            gd = np.expand_dims(gd, -1)
        ga = gb = None
        if a.requires_grad:
            ga = _unbroadcast(np.matmul(gd, np.swapaxes(bd, -1, -2)), ad.shape).reshape(a.shape)
        if b.requires_grad:
            gb = _unbroadcast(np.matmul(np.swapaxes(ad, -1, -2), gd), bd.shape).reshape(b.shape)
        return ga, gb

    return _make(out, (a, b), vjp, "matmul")


# -- shape ops -----------------------------------------------------------

def reshape(a, shape):
    a = _as_tensor(a)
    shape = tuple(shape)
    try:
        out = a.data.reshape(shape)
    except ValueError:
        raise ShapeError("reshape", a.shape, shape) from None
    return _make(out, (a,), lambda g: (g.reshape(a.shape),), "reshape")


def transpose(a, axes):
    a = _as_tensor(a)
    axes = tuple(axes)
    if sorted(axes) != list(range(a.ndim)):
        raise ShapeError("transpose", a.shape, axes, detail="not a permutation")
    inv = tuple(np.argsort(axes))
    return _make(a.data.transpose(axes), (a,), lambda g: (g.transpose(inv),), "transpose")


def concat(tensors, axis=0):
    tensors = [_as_tensor(t) for t in tensors]
    ref = tensors[0]
    for t in tensors[1:]:
        if t.ndim != ref.ndim:
            raise ShapeError("concat", ref.shape, t.shape)
        for ax in range(ref.ndim):
            if ax != axis % ref.ndim and t.shape[ax] != ref.shape[ax]:
                raise ShapeError("concat", ref.shape, t.shape)
    out = np.concatenate([t.data for t in tensors], axis=axis)
    splits = np.cumsum([t.shape[axis] for t in tensors])[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return _make(out, tensors, vjp, "concat")


def slice_(a, key):
    """Basic (non-repeating) indexing; the VJP scatters into zeros."""
    a = _as_tensor(a)
    out = a.data[key]

    def vjp(g):
        ga = np.zeros_like(a.data)
        ga[key] = g
        return (ga,)

    return _make(out, (a,), vjp, "slice")


# -- reductions ----------------------------------------------------------

def sum_(a, axis=None, keepdims=False):
    a = _as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        gg = g
        if not keepdims:
            gg = np.expand_dims(gg, axis)
        return (np.broadcast_to(gg, a.shape).copy(),)

    return _make(out, (a,), vjp, "sum")


def mean(a, axis=None, keepdims=False):
    a = _as_tensor(a)
    out = a.data.mean(axis=axis, keepdims=keepdims)
    if axis is None:
        count = a.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = 1
        for ax in axes:
            count *= a.shape[ax]

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g / count, a.shape).copy(),)
        gg = g
        if not keepdims:
            gg = np.expand_dims(gg, axis)
        return (np.broadcast_to(gg / count, a.shape).copy(),)

    return _make(out, (a,), vjp, "mean")


def abs_(a):
    a = _as_tensor(a)
    return _make(np.abs(a.data), (a,), lambda g: (g * np.sign(a.data),), "abs")


def square(a):
    a = _as_tensor(a)
    return _make(np.square(a.data), (a,), lambda g: (2.0 * a.data * g,), "square")


def sqrt(a):
    """Elementwise square root; its gradient at 0 is the subgradient 0."""
    a = _as_tensor(a)
    out = np.sqrt(a.data)

    def vjp(g):
        denom = 2.0 * out
        return (np.divide(g, denom, out=np.zeros_like(out), where=denom != 0.0),)
    return _make(out, (a,), vjp, "sqrt")


# -- nonlinearities -------------------------------------------------------

def gelu(a):
    """GELU in the exact Gaussian-CDF form: x * Phi(x)."""
    a = _as_tensor(a)
    cdf = 0.5 * (1.0 + erf(a.data / _SQRT2))
    out = a.data * cdf

    def vjp(g):
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * np.square(a.data))
        return (g * (cdf + a.data * pdf),)

    return _make(out, (a,), vjp, "gelu")


def leaky_relu(a, slope=0.01):
    a = _as_tensor(a)
    out = np.where(a.data > 0, a.data, slope * a.data)

    def vjp(g):
        return (g * np.where(a.data > 0, 1.0, slope),)

    return _make(out, (a,), vjp, "leaky_relu")


def softmax(a):
    """Softmax over the last axis, max-shifted for stability."""
    a = _as_tensor(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return _make(out, (a,), vjp, "softmax")


def layer_norm(a, gain=None, bias=None, eps=1e-5):
    """Normalize over the last axis; optional affine with per-feature gain/bias."""
    a = _as_tensor(a)
    parents = [a]
    if gain is not None:
        gain = _as_tensor(gain)
        if gain.shape != (a.shape[-1],):
            raise ShapeError("layer_norm", a.shape, gain.shape, detail="gain must match last dim")
        parents.append(gain)
    if bias is not None:
        bias = _as_tensor(bias)
        if bias.shape != (a.shape[-1],):
            raise ShapeError("layer_norm", a.shape, bias.shape, detail="bias must match last dim")
        parents.append(bias)

    # means as sum / n: np.mean's own arithmetic, without its wrapper
    n = a.shape[-1]
    mu = a.data.sum(axis=-1, keepdims=True) / n
    xc = a.data - mu
    var = np.square(xc).sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat
    if gain is not None:
        out = out * gain.data
    if bias is not None:
        out = out + bias.data

    def vjp(g):
        gh = g if gain is None else g * gain.data
        m1 = gh.sum(axis=-1, keepdims=True) / n
        m2 = (gh * xhat).sum(axis=-1, keepdims=True) / n
        ga = inv * (gh - m1 - xhat * m2)
        grads = [ga]
        if gain is not None:
            axes = tuple(range(g.ndim - 1))
            grads.append((g * xhat).sum(axis=axes))
        if bias is not None:
            axes = tuple(range(g.ndim - 1))
            grads.append(g.sum(axis=axes))
        return tuple(grads)

    return _make(out, parents, vjp, "layer_norm")


# -- convolution ----------------------------------------------------------

def _conv_windows(x, kh, kw, stride):
    # (B, C, Ho, Wo, kh, kw) view of all stride-s valid windows
    win = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    return win[:, :, ::stride, ::stride, :, :]


def _conv_gather(x, w, stride):
    # y[b,o,i,j] = sum_{c,p,q} x[b,c,i*s+p,j*s+q] * w[o,c,p,q]
    win = _conv_windows(x, w.shape[2], w.shape[3], stride)
    return np.einsum("bchwpq,ocpq->bohw", win, w, optimize=True)


def _conv_scatter(g, w, stride, out_hw):
    # adjoint of _conv_gather wrt x; also the transposed-conv forward.
    # w layout: (channels of g, channels of out, kh, kw)
    B, Cg, Ho, Wo = g.shape
    _, Co, kh, kw = w.shape
    out = np.zeros((B, Co, out_hw[0], out_hw[1]), dtype=np.float64)
    for p in range(kh):
        for q in range(kw):
            contrib = np.einsum("bghw,gc->bchw", g, w[:, :, p, q], optimize=True)
            out[:, :, p : p + stride * Ho : stride, q : q + stride * Wo : stride] += contrib
    return out


def conv2d(x, w, stride=1):
    """Valid strided convolution (cross-correlation): x (B,Cin,H,W), w (Cout,Cin,kh,kw)."""
    x, w = _as_tensor(x), _as_tensor(w)
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError("conv2d", x.shape, w.shape, detail="need 4-D input and kernel")
    B, Ci, H, W = x.shape
    Co, Ci2, kh, kw = w.shape
    if Ci != Ci2:
        raise ShapeError("conv2d", x.shape, w.shape, detail="channel mismatch")
    if H < kh or W < kw:
        raise ShapeError("conv2d", x.shape, w.shape, detail="kernel larger than input")
    out = _conv_gather(x.data, w.data, stride)

    def vjp(g):
        gx = _conv_scatter(g, w.data, stride, (H, W)) if x.requires_grad else None
        gw = None
        if w.requires_grad:
            win = _conv_windows(x.data, kh, kw, stride)
            gw = np.einsum("bchwpq,bohw->ocpq", win, g, optimize=True)
        return gx, gw

    return _make(out, (x, w), vjp, "conv2d")


def conv_transpose2d(x, w, stride=1):
    """Stride-s transposed convolution, the exact adjoint of conv2d.

    x (B,Cin,H,W), w (Cin,Cout,kh,kw) -> (B,Cout,(H-1)*s+kh,(W-1)*s+kw).
    """
    x, w = _as_tensor(x), _as_tensor(w)
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError("conv_transpose2d", x.shape, w.shape, detail="need 4-D input and kernel")
    B, Ci, H, W = x.shape
    Ci2, Co, kh, kw = w.shape
    if Ci != Ci2:
        raise ShapeError("conv_transpose2d", x.shape, w.shape, detail="channel mismatch")
    oh = (H - 1) * stride + kh
    ow = (W - 1) * stride + kw
    out = _conv_scatter(x.data, w.data, stride, (oh, ow))

    def vjp(g):
        gx = _conv_gather(g, w.data, stride) if x.requires_grad else None
        gw = None
        if w.requires_grad:
            win = _conv_windows(g, kh, kw, stride)
            gw = np.einsum("bohwpq,bchw->copq", win, x.data, optimize=True)
        return gx, gw

    return _make(out, (x, w), vjp, "conv_transpose2d")


# -- initialization helpers ------------------------------------------------

def trunc_normal(shape, std=0.02, rng=None):
    """Normal(0, std) samples resampled until inside +-2 std."""
    rng = rng if rng is not None else np.random.default_rng()
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2.0 * std
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2.0 * std
    return out


def parameter(data):
    """A leaf tensor that wants gradients."""
    return Tensor(data, requires_grad=True)
