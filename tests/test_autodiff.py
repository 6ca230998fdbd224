"""Gradient checks for the tensor core.

Every differentiable op gets a central-difference check on random
inputs: build a scalar loss from the op output, compare analytic grads
against (f(x+h) - f(x-h)) / 2h per scalar entry.
"""

import warnings

import numpy as np
import pytest

from tacforce import autodiff as ad
from tacforce.errors import ContractError, ShapeError
from tacforce.training import loss_depth


def numeric_grad(fn, arrays, idx, h=1e-4):
    """Central-difference gradient of fn(*arrays) wrt arrays[idx]."""
    base = [a.copy() for a in arrays]
    g = np.zeros_like(base[idx])
    flat = g.reshape(-1)
    xflat = base[idx].reshape(-1)
    for i in range(xflat.size):
        orig = xflat[i]
        xflat[i] = orig + h
        fp = fn(*base)
        xflat[i] = orig - h
        fm = fn(*base)
        xflat[i] = orig
        flat[i] = (fp - fm) / (2.0 * h)
    return g


def check_op(build, shapes, rng, rtol=1e-4, h=1e-4, wiggle=None):
    """Compare backward() grads of a scalar-valued graph against FD.

    `build` maps Tensor args to a scalar Tensor; `shapes` gives the input
    shapes. `wiggle` optionally remaps raw uniforms (e.g. to keep sqrt
    inputs positive).
    """
    arrays = [rng.uniform(-1.0, 1.0, size=s) for s in shapes]
    if wiggle is not None:
        arrays = [wiggle(i, a) for i, a in enumerate(arrays)]
    tensors = [ad.Tensor(a, requires_grad=True) for a in arrays]
    loss = build(*tensors)
    loss.backward()

    def scalar_fn(*arrs):
        with ad.no_grad():
            ts = [ad.Tensor(a) for a in arrs]
            return float(build(*ts).data)

    for i, t in enumerate(tensors):
        num = numeric_grad(scalar_fn, arrays, i, h=h)
        assert t.grad is not None, f"input {i} got no gradient"
        denom = np.maximum(np.abs(num), 1.0)
        err = np.abs(t.grad - num) / denom
        assert err.max() < rtol, f"input {i}: max rel err {err.max():.2e}"


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


class TestElementwise:
    def test_add_broadcast(self, rng):
        check_op(lambda a, b: (a + b).sum(), [(3, 4), (4,)], rng)

    def test_sub_broadcast(self, rng):
        check_op(lambda a, b: (a - b).sum(), [(2, 3, 4), (3, 1)], rng)

    def test_mul_broadcast(self, rng):
        check_op(lambda a, b: (a * b).sum(), [(3, 4), (3, 1)], rng)

    @pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul])
    def test_broadcast_mismatch_is_shape_error(self, op):
        with pytest.raises(ShapeError, match=rf"^{op.__name__}: .*\(2, 3\) vs \(4,\)"):
            op(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones(4)))

    def test_neg_and_scalar_ops(self, rng):
        check_op(lambda a: (-a * 2.5 + 1.0).sum(), [(5,)], rng)

    def test_div_by_scalar(self, rng):
        check_op(lambda a: (a / 4.0).sum(), [(3, 3)], rng)

    def test_abs(self, rng):
        # keep inputs away from the kink
        check_op(
            lambda a: ad.abs_(a).sum(),
            [(4, 4)],
            rng,
            wiggle=lambda i, a: np.where(np.abs(a) < 0.2, a + 0.5, a),
        )

    def test_square(self, rng):
        check_op(lambda a: ad.square(a).sum(), [(3, 5)], rng)

    def test_sqrt(self, rng):
        check_op(lambda a: ad.sqrt(a).sum(), [(6,)], rng, wiggle=lambda i, a: np.abs(a) + 0.5)

    def test_sqrt_grad_at_zero_is_zero(self):
        a = ad.Tensor(np.array([0.0, 4.0, 0.0]), requires_grad=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ad.backward(ad.sqrt(a).sum())
        np.testing.assert_array_equal(a.grad, [0.0, 0.25, 0.0])

    def test_depth_loss_on_exact_fit_has_finite_grads(self):
        depth = np.linspace(0.0, 1.0, 2 * 4 * 4).reshape(2, 1, 4, 4)
        pred = ad.Tensor(depth.copy(), requires_grad=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss = loss_depth(ad.Tensor(depth), pred)
            ad.backward(loss)
        assert float(loss.data) == 0.0
        assert np.isfinite(pred.grad).all()

    def test_mixed_chain(self, rng):
        check_op(lambda a, b: (ad.square(a) * b - a).mean(), [(4, 3), (4, 3)], rng)


class TestMatmul:
    def test_2d(self, rng):
        check_op(lambda a, b: (a @ b).sum(), [(3, 4), (4, 5)], rng)

    def test_batched(self, rng):
        check_op(lambda a, b: (a @ b).sum(), [(2, 3, 4), (2, 4, 5)], rng)

    def test_batched_against_shared_weight(self, rng):
        check_op(lambda a, b: (a @ b).sum(), [(2, 3, 4), (4, 5)], rng)

    def test_vector_matrix(self, rng):
        check_op(lambda a, b: (a @ b).sum(), [(4,), (4, 3)], rng)

    def test_matrix_vector(self, rng):
        check_op(lambda a, b: (a @ b).sum(), [(3, 4), (4,)], rng)

    def test_identity_1x1(self):
        a = ad.Tensor([[3.0]], requires_grad=True)
        eye = ad.Tensor([[1.0]])
        out = a @ eye
        assert out.data[0, 0] == 3.0
        out.sum().backward()
        assert a.grad[0, 0] == 1.0

    def test_inner_dim_mismatch(self):
        a = ad.Tensor(np.zeros((3, 4)))
        b = ad.Tensor(np.zeros((5, 2)))
        with pytest.raises(ShapeError, match="matmul"):
            a @ b


def with_signed_zeros(g):
    """g with its first row +0.0 and every other element of its last row -0.0."""
    g = g.copy()
    g[..., 0, :] = 0.0
    g[..., -1, ::2] = -0.0
    return g


def chain_attention(qkv, heads):
    """Attention as the reshape/transpose/slice/matmul/mul/softmax chain
    that `ad.attention` fuses."""
    b, t, k3 = qkv.shape
    k = k3 // 3
    dh = k // heads
    qkv = ad.transpose(ad.reshape(qkv, (b, t, 3, heads, dh)), (2, 0, 3, 1, 4))
    q, key, v = ad.slice_(qkv, 0), ad.slice_(qkv, 1), ad.slice_(qkv, 2)
    scores = ad.mul(ad.matmul(q, ad.transpose(key, (0, 1, 3, 2))), 1.0 / np.sqrt(dh))
    out = ad.matmul(ad.softmax(scores), v)
    return ad.reshape(ad.transpose(out, (0, 2, 1, 3)), (b, t, k))


class TestFusedOps:
    """`linear` and `attention` give the bits of the chains they fuse."""

    @pytest.mark.parametrize("x_shape", [(1, 1, 8), (1, 5, 8), (3, 1, 8), (3, 5, 8), (4, 8),
                                         (2, 3, 5, 8)])
    def test_linear_matches_add_matmul_bytes(self, rng, x_shape):
        x, w, b = rng.normal(size=x_shape), rng.normal(size=(8, 6)), rng.normal(size=6)
        fused = ad.linear(*(ad.Tensor(a, requires_grad=True) for a in (x, w, b)))
        mm = ad.matmul(ad.Tensor(x, requires_grad=True), ad.Tensor(w, requires_grad=True))
        chain = ad.add(mm, ad.Tensor(b, requires_grad=True))
        assert fused.data.tobytes() == chain.data.tobytes()
        g = with_signed_zeros(rng.normal(size=fused.shape))
        g_mm, gb = chain._vjp(g)
        for got, want in zip(fused._vjp(g), (*mm._vjp(g_mm), gb)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("x_shape", [(1, 5, 8), (3, 1, 8), (3, 5, 8), (2, 3, 5, 8), (4, 8)])
    def test_weight_grad_is_the_stacked_sum(self, rng, x_shape):
        """Batch-order accumulation has the bits of the (B, K, N) stack summed."""
        x = with_signed_zeros(rng.normal(size=x_shape))
        g = with_signed_zeros(rng.normal(size=x_shape[:-1] + (6,)))
        stack = np.matmul(np.swapaxes(x, -1, -2), g)
        want = stack.sum(axis=tuple(range(stack.ndim - 2)))
        assert ad._weight_grad(x, g).tobytes() == want.tobytes()

    @pytest.mark.parametrize("b, t", [(1, 1), (1, 17), (3, 1), (3, 17)])
    @pytest.mark.parametrize("heads, dh", [(1, 8), (2, 8), (4, 8), (4, 16)])
    def test_attention_matches_op_chain_bytes(self, rng, b, t, heads, dh):
        qkv = rng.normal(size=(b, t, 3 * heads * dh))
        for g in (with_signed_zeros(rng.normal(size=(b, t, heads * dh))),
                  np.full((b, t, heads * dh), -0.0)):
            grads = []
            for op in (ad.attention, chain_attention):
                x = ad.Tensor(qkv, requires_grad=True)
                out = op(x, heads)
                ad.backward(ad.mul(out, ad.Tensor(g)).sum())
                grads.append((out.data.tobytes(), x.grad.tobytes()))
            assert grads[0] == grads[1]

    def test_attention_takes_one_tape_node(self, rng):
        qkv = ad.Tensor(rng.normal(size=(2, 3, 12)), requires_grad=True)
        out = ad.attention(qkv, 2)
        assert out.op == "attention" and out._parents == (qkv,)

    @pytest.mark.parametrize("shapes", [[(2, 3, 4), (4, 5), (5,)], [(3, 4), (4, 2), (2,)]])
    def test_linear_grad(self, rng, shapes):
        check_op(lambda x, w, b: ad.square(ad.linear(x, w, b)).sum(), shapes, rng)

    @pytest.mark.parametrize("heads", [1, 2])
    def test_attention_grad(self, rng, heads):
        check_op(lambda qkv: ad.square(ad.attention(qkv, heads)).sum(), [(2, 3, 12)], rng)

    @pytest.mark.parametrize("shapes", [((3, 4), (5, 2), (2,)), ((3, 4), (4, 2), (3,)),
                                        ((4,), (4, 2), (2,))])
    def test_linear_shape_errors(self, shapes):
        with pytest.raises(ShapeError, match="linear"):
            ad.linear(*(ad.Tensor(np.zeros(s)) for s in shapes))

    def test_attention_shape_error(self):
        with pytest.raises(ShapeError, match="attention"):
            ad.attention(ad.Tensor(np.zeros((2, 3, 10))), 2)


class TestShapeOps:
    def test_reshape(self, rng):
        check_op(lambda a: (ad.reshape(a, (6, 2)) @ ad.reshape(a, (2, 6))).sum(), [(3, 4)], rng)

    def test_transpose(self, rng):
        check_op(lambda a: (ad.transpose(a, (1, 0)) @ a).sum(), [(3, 4)], rng)

    def test_transpose_3d(self, rng):
        check_op(lambda a: ad.transpose(a, (2, 0, 1)).sum(), [(2, 3, 4)], rng)

    def test_concat(self, rng):
        check_op(lambda a, b: ad.square(ad.concat([a, b], axis=1)).sum(), [(2, 3), (2, 2)], rng)

    def test_slice(self, rng):
        check_op(lambda a: ad.square(a[:, 1:3]).sum(), [(4, 5)], rng)

    def test_slice_single_row(self, rng):
        check_op(lambda a: ad.square(a[0]).sum(), [(4, 5)], rng)

    @pytest.mark.parametrize("key", [
        [0, 0, 2],
        np.array([0, 0, 2]),
        np.array([True, False, True]),
        True,
        (slice(None), [1, 1]),
    ])
    def test_slice_rejects_advanced_keys(self, key):
        """A repeated element would get one of its gradients, not their sum."""
        a = ad.Tensor(np.ones((3, 3)), requires_grad=True)
        with pytest.raises(ContractError, match="basic indexing"):
            ad.slice_(a, key)

    def test_slice_basic_keys(self, rng):
        check_op(lambda a: ad.square(a[..., np.int64(1), None, 1:]).sum(), [(2, 3, 4)], rng)

    def test_bad_reshape(self):
        with pytest.raises(ShapeError):
            ad.reshape(ad.Tensor(np.zeros((3, 4))), (5, 5))

    def test_bad_transpose(self):
        with pytest.raises(ShapeError):
            ad.transpose(ad.Tensor(np.zeros((3, 4))), (0, 0))


class TestReductions:
    def test_sum_all(self, rng):
        x = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        x.sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_sum_axis(self, rng):
        check_op(lambda a: ad.square(a.sum(axis=0)).sum(), [(3, 4)], rng)

    def test_sum_keepdims(self, rng):
        check_op(lambda a: (a * a.sum(axis=1, keepdims=True)).sum(), [(3, 4)], rng)

    def test_mean_all(self, rng):
        check_op(lambda a: ad.square(a).mean(), [(4, 6)], rng)

    def test_mean_axis(self, rng):
        check_op(lambda a: ad.square(a.mean(axis=-1)).sum(), [(3, 5)], rng)


class TestNonlinearities:
    def test_gelu_zero_at_zero(self):
        out = ad.gelu(ad.Tensor([0.0]))
        assert out.data[0] == 0.0

    def test_gelu_values(self):
        # x * Phi(x) at a few hand-checked points
        out = ad.gelu(ad.Tensor([1.0, -1.0, 2.0]))
        phi1 = 0.8413447460685429
        np.testing.assert_allclose(out.data, [phi1, -(1 - phi1), 2 * 0.9772498680518208], rtol=1e-12)

    def test_gelu_grad(self, rng):
        check_op(lambda a: ad.gelu(a).sum(), [(5, 5)], rng)

    def test_leaky_relu_grad(self, rng):
        check_op(
            lambda a: ad.leaky_relu(a).sum(),
            [(6, 6)],
            rng,
            wiggle=lambda i, a: np.where(np.abs(a) < 0.2, a + 0.4, a),
        )

    def test_leaky_relu_negative_slope(self):
        out = ad.leaky_relu(ad.Tensor([-2.0, 3.0]), slope=0.01)
        np.testing.assert_allclose(out.data, [-0.02, 3.0])

    def test_softmax_uniform(self):
        out = ad.softmax(ad.Tensor([5.0, 5.0, 5.0, 5.0]))
        np.testing.assert_allclose(out.data, 0.25)

    def test_softmax_rows_sum_to_one(self, rng):
        out = ad.softmax(ad.Tensor(rng.normal(size=(3, 7)) * 10))
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, rtol=1e-12)

    def test_softmax_shift_invariance(self, rng):
        x = rng.normal(size=(4, 5))
        a = ad.softmax(ad.Tensor(x)).data
        b = ad.softmax(ad.Tensor(x + 1000.0)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_softmax_grad(self, rng):
        check_op(lambda a: (ad.softmax(a) * ad.square(a)).sum(), [(3, 6)], rng)


class TestLayerNorm:
    def test_constant_vector_normalizes_to_zero(self):
        out = ad.layer_norm(ad.Tensor(np.full((2, 8), 3.7)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-9)

    def test_output_stats(self, rng):
        x = rng.normal(size=(5, 64)) * 3 + 2
        out = ad.layer_norm(ad.Tensor(x)).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, rtol=1e-3)

    def test_grad_plain(self, rng):
        check_op(lambda a: ad.square(ad.layer_norm(a)).sum(), [(3, 8)], rng)

    def test_grad_affine(self, rng):
        check_op(
            lambda a, g, b: ad.square(ad.layer_norm(a, g, b)).sum(),
            [(2, 6), (6,), (6,)],
            rng,
        )

    def test_matches_np_mean_form_bit_for_bit(self, rng):
        x = rng.normal(size=(4, 5, 24)) * 3 + 2
        g = rng.normal(size=x.shape)
        mu = x.mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(np.square(x - mu).mean(axis=-1, keepdims=True) + 1e-5)
        xhat = (x - mu) * inv
        grad = inv * (g - g.mean(axis=-1, keepdims=True)
                      - xhat * (g * xhat).mean(axis=-1, keepdims=True))
        a = ad.Tensor(x, requires_grad=True)
        out = ad.layer_norm(a)
        assert out.data.tobytes() == xhat.tobytes()
        assert out._vjp(g)[0].tobytes() == grad.tobytes()

    def test_gain_shape_checked(self):
        with pytest.raises(ShapeError):
            ad.layer_norm(ad.Tensor(np.zeros((2, 6))), gain=ad.Tensor(np.zeros(4)))


class TestConv:
    def test_conv2d_matches_direct(self, rng):
        x = rng.normal(size=(2, 3, 6, 7))
        w = rng.normal(size=(4, 3, 2, 2))
        out = ad.conv2d(ad.Tensor(x), ad.Tensor(w), stride=2).data
        B, Co = 2, 4
        Ho, Wo = (6 - 2) // 2 + 1, (7 - 2) // 2 + 1
        ref = np.zeros((B, Co, Ho, Wo))
        for b in range(B):
            for o in range(Co):
                for i in range(Ho):
                    for j in range(Wo):
                        patch = x[b, :, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
                        ref[b, o, i, j] = (patch * w[o]).sum()
        np.testing.assert_allclose(out, ref, rtol=1e-12)

    def test_conv2d_grad(self, rng):
        check_op(
            lambda x, w: ad.square(ad.conv2d(x, w, stride=2)).sum(),
            [(1, 2, 5, 6), (3, 2, 2, 2)],
            rng,
        )

    def test_conv_transpose_output_size(self, rng):
        x = ad.Tensor(rng.normal(size=(1, 3, 4, 5)))
        w = ad.Tensor(rng.normal(size=(3, 2, 2, 2)))
        out = ad.conv_transpose2d(x, w, stride=2)
        assert out.shape == (1, 2, (4 - 1) * 2 + 2, (5 - 1) * 2 + 2)

    def test_conv_transpose_grad(self, rng):
        check_op(
            lambda x, w: ad.square(ad.conv_transpose2d(x, w, stride=2)).sum(),
            [(1, 3, 3, 4), (3, 2, 2, 2)],
            rng,
        )

    def test_adjoint_identity(self, rng):
        """<conv(x), y> == <x, conv_transpose(y)> for matching kernels."""
        x = rng.normal(size=(1, 2, 8, 8))
        w = rng.normal(size=(3, 2, 2, 2))
        y = rng.normal(size=(1, 3, 4, 4))
        # the conv kernel (Co,Ci,kh,kw) reads as (Cin,Cout,kh,kw) on the transpose side
        cx = ad.conv2d(ad.Tensor(x), ad.Tensor(w), stride=2).data
        cty = ad.conv_transpose2d(ad.Tensor(y), ad.Tensor(w), stride=2).data
        lhs = (cx * y).sum()
        rhs = (x * cty).sum()
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError, match="conv2d"):
            ad.conv2d(ad.Tensor(np.zeros((1, 3, 8, 8))), ad.Tensor(np.zeros((4, 2, 2, 2))))


class TestBackwardMachinery:
    def test_textbook_quadratic(self):
        # gradient of ||w||^2 at (1, 2) is (2, 4)
        w = ad.Tensor([1.0, 2.0], requires_grad=True)
        ad.square(w).sum().backward()
        np.testing.assert_allclose(w.grad, [2.0, 4.0])

    def test_diamond_graph_accumulates(self):
        x = ad.Tensor([3.0], requires_grad=True)
        y = x * 2.0
        z = (y * y + y).sum()  # z = 4x^2 + 2x, dz/dx = 8x + 2 = 26
        z.backward()
        np.testing.assert_allclose(x.grad, [26.0])

    def test_repeated_backward_accumulates(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        ad.square(x).sum().backward()
        ad.square(x).sum().backward()
        np.testing.assert_allclose(x.grad, [4.0, 8.0])

    def test_nonscalar_loss_rejected(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError):
            ad.square(x).backward()

    def test_no_grad_blocks_taping(self):
        x = ad.Tensor([1.0], requires_grad=True)
        with ad.no_grad():
            y = ad.square(x)
        assert not y.requires_grad
        assert y._vjp is None

    def test_grad_only_on_leaves_requesting_it(self):
        a = ad.Tensor([1.0], requires_grad=True)
        b = ad.Tensor([2.0])
        (a * b).sum().backward()
        assert a.grad is not None
        assert b.grad is None

    @pytest.mark.parametrize("op, shapes", [
        (ad.add, ((3, 4), (4,))),
        (ad.sub, ((3, 4), (3, 4))),
        (ad.mul, ((3, 4), ())),
        (ad.matmul, ((2, 3, 4), (4, 5))),
        (lambda x, w: ad.conv2d(x, w, stride=2), ((2, 3, 7, 7), (4, 3, 3, 3))),
        (lambda x, w: ad.conv_transpose2d(x, w, stride=2), ((2, 3, 4, 4), (3, 2, 2, 2))),
        (ad.linear, ((2, 3, 4), (4, 5), (5,))),
    ])
    def test_constant_operand_gets_no_gradient(self, rng, op, shapes):
        """A VJP computes nothing for an operand that needs no gradient,
        and gives the others the bits they get when all need one."""
        arrays = [rng.normal(size=s) for s in shapes]
        every = op(*(ad.Tensor(a, requires_grad=True) for a in arrays))
        g = rng.normal(size=every.shape)
        want = every._vjp(g)
        for const in range(len(arrays)):
            out = op(*(ad.Tensor(a, requires_grad=i != const) for i, a in enumerate(arrays)))
            got = out._vjp(g)
            assert got[const] is None
            for i in range(len(arrays)):
                if i != const:
                    assert got[i].tobytes() == want[i].tobytes()

    def test_shared_subexpression(self, rng):
        check_op(
            lambda a: (ad.square(a).sum(axis=0) * a.sum(axis=0)).sum(),
            [(3, 4)],
            rng,
        )


class TestInit:
    def test_trunc_normal_bounds_and_spread(self):
        rng = np.random.default_rng(7)
        x = ad.trunc_normal((40, 50), std=0.02, rng=rng)
        assert np.abs(x).max() <= 0.04 + 1e-12
        assert 0.01 < x.std() < 0.03

    def test_parameter_requires_grad(self):
        p = ad.parameter(np.zeros(3))
        assert p.requires_grad
