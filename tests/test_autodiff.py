"""Finite-difference checks of every autodiff op's backward pass."""

import re
import weakref

import numpy as np
import pytest

from rsvlm import autodiff as ad
from rsvlm.errors import DomainError, ShapeError
from rsvlm.numerics import Rng
from oracles import compare_gradients, finite_diff_gradient, total


def _param(value):
    """A leaf that needs a gradient for the rest of the test, as a tensor
    does inside `ad.differentiating`."""
    t = ad.const(value)
    t.requires_grad = True
    return t


def _check_op(build, *shapes, seed=0, tol=1e-6):
    """Compare analytic input gradients of a scalarized op against central
    differences for each input slot."""
    rng = Rng(seed)
    values = [rng.normal(s) for s in shapes]
    for slot in range(len(values)):
        leaves = [ad.const(v.copy()) for v in values]
        with ad.differentiating(leaves):
            ad.backward(total(build(*leaves)))
        analytic = leaves[slot].grad

        def f(flat):
            args = [ad.const(v.copy()) for v in values]
            args[slot] = ad.const(flat.reshape(shapes[slot]))
            return total(build(*args)).value.item()

        numeric = finite_diff_gradient(f, values[slot].reshape(-1)).reshape(shapes[slot])
        report = compare_gradients(analytic, numeric)
        assert report.max_relative_error < tol, (slot, report)


def test_add_with_broadcast():
    _check_op(lambda a, b: ad.add(a, b), (3, 4), (1, 4))
    _check_op(lambda a, b: ad.add(a, b), (3, 4), (3, 4))


def test_mul_with_broadcast():
    _check_op(lambda a, b: ad.mul(a, b), (3, 4), (3, 1))
    _check_op(lambda a, b: ad.mul(a, b), (2, 5), (1, 1))


def test_matmul_and_transpose():
    _check_op(lambda a, b: ad.matmul(a, ad.transpose(b)), (3, 4), (5, 4))


def test_concat_and_narrow():
    _check_op(lambda a, b: ad.narrow(ad.concat([a, b], axis=0), 0, 1, 3), (2, 3), (4, 3))
    _check_op(lambda a, b: ad.concat([a, b], axis=1), (3, 2), (3, 4))


def test_softmax_rows_backward():
    _check_op(lambda a, b: ad.mul(ad.softmax_rows(a), b), (4, 5), (4, 5))


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_attention_backward(heads):
    # three queries over five keys, unmasked and as three new causal rows
    # over two cached ones
    for causal in (False, True):
        _check_op(lambda q, k, v, w: ad.mul(ad.attention(q, k, v, heads, causal=causal), w),
                  (3, 8), (5, 8), (5, 8), (3, 8), seed=heads)


# Mixed segment lengths: a 1-row segment, the (3, 5) group twice, and k_len
# above q_len in every segment but the last, so causal rows see a prefix.
Q_LENS, K_LENS = (3, 1, 3, 2), (5, 4, 5, 2)


@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("causal", [False, True])
def test_segmented_attention_backward(heads, causal):
    _check_op(lambda q, k, v, w: ad.mul(ad.attention(q, k, v, heads, Q_LENS, K_LENS, causal), w),
              (sum(Q_LENS), 8), (sum(K_LENS), 8), (sum(K_LENS), 8), (sum(Q_LENS), 8), seed=10 + heads)


def _matches_one_segment_calls(q_lens, k_lens, causal):
    """Each segment's values and gradients in one segmented call are those
    of calling the op on that segment alone, bit for bit."""
    rng = Rng(20)
    q, k, v = (_param(rng.normal((sum(n), 8))) for n in (q_lens, k_lens, k_lens))
    weights = rng.normal(q.value.shape)
    out = ad.attention(q, k, v, 2, q_lens, k_lens, causal)
    ad.backward(total(ad.mul(out, ad.const(weights))))
    q0 = k0 = 0
    for a, b in zip(q_lens, k_lens):
        qs, ks = slice(q0, q0 + a), slice(k0, k0 + b)
        parts = [_param(x.value[sl].copy()) for x, sl in ((q, qs), (k, ks), (v, ks))]
        alone = ad.attention(*parts, 2, causal=causal)
        ad.backward(total(ad.mul(alone, ad.const(weights[qs]))))
        assert np.array_equal(alone.value, out.value[qs])
        for part, whole, sl in zip(parts, (q, k, v), (qs, ks, ks)):
            assert np.array_equal(part.grad, whole.grad[sl])
        q0, k0 = q0 + a, k0 + b


@pytest.mark.parametrize("causal", [False, True])
def test_segmented_attention_matches_one_segment_calls_bit_exact(causal):
    # the (3, 5) segments run as one batched pass, yet each segment's values
    # and gradients are those of calling the op on that segment alone
    _matches_one_segment_calls(Q_LENS, K_LENS, causal)


def test_attention_whose_first_segment_is_alone_matches_one_segment_calls():
    # the first pass covers one segment's rows here, not every row
    _matches_one_segment_calls((2, 3, 3), (4, 5, 5), causal=True)


def _copyto_then_exp_attention(q, k, v, heads, w):
    """One causal segment's output and q, k, v gradients under the upstream
    gradient w, with the masked scores set to the causal bias and taken
    through np.exp with the rest."""
    a, d = q.shape
    b, dk = k.shape[0], d // heads
    split = lambda x: x.reshape(1, x.shape[0], heads, dk).transpose(0, 2, 1, 3)
    merge = lambda x: x.transpose(0, 2, 1, 3).reshape(x.shape[2], d)
    qh, kh, vh, gh = split(q), split(k), split(v), split(w)
    c = 1.0 / np.sqrt(dk)
    s = qh @ kh.transpose(0, 1, 3, 2)
    s *= c
    if a > 1:
        np.copyto(s, ad.CAUSAL_BIAS, where=np.arange(b) > np.arange(b - a, b)[:, None])
    s -= s.max(axis=3, keepdims=True)
    p = np.exp(s)
    p /= p.sum(axis=3, keepdims=True)
    ds = gh @ vh.transpose(0, 1, 3, 2)
    ds -= (ds * p).sum(axis=3, keepdims=True)
    ds *= p
    ds *= c
    return (merge(p @ vh), merge(ds @ kh), merge(ds.transpose(0, 1, 3, 2) @ qh),
            merge(p.transpose(0, 1, 3, 2) @ gh))


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_causal_attention_matches_copyto_then_exp_bit_exact(heads):
    # the masked scores skip np.exp, yet every value and gradient is that
    # of taking them through it
    rng = Rng(30 + heads)
    q, k, v = (_param(rng.normal((sum(n), 8))) for n in (Q_LENS, K_LENS, K_LENS))
    weights = rng.normal(q.value.shape)
    out = ad.attention(q, k, v, heads, Q_LENS, K_LENS, causal=True)
    ad.backward(total(ad.mul(out, ad.const(weights))))
    q0 = k0 = 0
    for a, b in zip(Q_LENS, K_LENS):
        qs, ks = slice(q0, q0 + a), slice(k0, k0 + b)
        want = _copyto_then_exp_attention(q.value[qs], k.value[ks], v.value[ks], heads, weights[qs])
        got = (out.value[qs], q.grad[qs], k.grad[ks], v.grad[ks])
        for x, y in zip(got, want):
            assert np.array_equal(x.view(np.int64), y.view(np.int64))
        q0, k0 = q0 + a, k0 + b


def test_segmented_attention_validates_lengths():
    def z(*shape):
        return ad.const(np.zeros(shape))

    with pytest.raises(ShapeError, match="segment lengths"):
        ad.attention(z(4, 4), z(5, 4), z(5, 4), 2, (2, 2), (5,))
    with pytest.raises(ShapeError, match="segment lengths"):
        ad.attention(z(4, 4), z(5, 4), z(5, 4), 2, (2, 2), (2, 2))
    with pytest.raises(ShapeError, match="segment lengths"):
        ad.attention(z(4, 4), z(5, 4), z(5, 4), 2, (4, 0), (3, 2))
    with pytest.raises(ShapeError, match="causal segment of 3 queries over 2 keys"):
        ad.attention(z(4, 4), z(5, 4), z(5, 4), 2, (1, 3), (3, 2), causal=True)



@pytest.mark.parametrize("q_rows,k_rows,q_lens,k_lens", [
    (4, 5, (3,), (5,)), (4, 5, [4], [4]), (4, 5, (5,), (5,)), (0, 5, None, None), (4, 0, None, None),
    (4, 5, (4,), (4, 1)),
])
def test_one_segment_attention_validates_lengths(q_rows, k_rows, q_lens, k_lens):
    # a lone segment skips the grouping, not the check or its message
    z = lambda rows: ad.const(np.zeros((rows, 4)))
    shown_q = (q_rows,) if q_lens is None else tuple(q_lens)
    shown_k = (k_rows,) if k_lens is None else tuple(k_lens)
    want = (f"attention: segment lengths {shown_q} over {shown_k} must be positive, "
            f"pair up and count the {q_rows} query and {k_rows} key rows")
    with pytest.raises(ShapeError, match=f"^{re.escape(want)}$"):
        ad.attention(z(q_rows), z(k_rows), z(k_rows), 2, q_lens, k_lens)
    with pytest.raises(ShapeError, match="^attention: a causal segment of 4 queries over 3 keys$"):
        ad.attention(z(4), z(3), z(3), 2, causal=True)

def test_attention_validates_shapes():
    def z(*shape):
        return ad.const(np.zeros(shape))

    with pytest.raises(ShapeError, match="widths disagree"):
        ad.attention(z(2, 4), z(3, 6), z(3, 6), 2)
    with pytest.raises(ShapeError, match="widths disagree"):
        ad.attention(z(2, 4), z(3, 4), z(3, 6), 2)
    with pytest.raises(ShapeError, match="row counts disagree"):
        ad.attention(z(2, 4), z(3, 4), z(2, 4), 2)
    with pytest.raises(ShapeError, match="dim 6 not divisible by heads 4"):
        ad.attention(z(2, 6), z(3, 6), z(3, 6), 4)


def test_layer_norm_backward():
    _check_op(lambda a, b: ad.mul(ad.layer_norm_rows(a), b), (4, 6), (4, 6))



def test_layer_norm_is_np_mean_and_var_bit_exact():
    # the reductions and divisions are np.mean's and np.var's, done once
    rng = Rng(15)
    x, g = _param(rng.normal((40, 7)) * 3.0 + 1.0), rng.normal((40, 7))
    y = ad.layer_norm_rows(x)
    want = (x.value - x.value.mean(axis=1, keepdims=True)) * (
        1.0 / np.sqrt(x.value.var(axis=1, keepdims=True) + ad.LAYER_NORM_EPS))
    assert y.value.tobytes() == want.tobytes()
    ad.backward(total(ad.mul(y, ad.const(g))))
    inv = 1.0 / np.sqrt(x.value.var(axis=1, keepdims=True) + ad.LAYER_NORM_EPS)
    dy = g - g.mean(axis=1, keepdims=True) - want * (g * want).mean(axis=1, keepdims=True)
    assert x.grad.tobytes() == (inv * dy).tobytes()

def test_silu_tanh_exp_backward():
    _check_op(lambda a: ad.silu(a), (3, 5))
    _check_op(lambda a: ad.tanh(a), (3, 5))
    _check_op(lambda a: ad.exp(a), (2, 4), seed=3)



def test_l2_normalize_rejects_a_zero_row_only():
    x = np.array([[3.0, 4.0], [0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(DomainError, match="^l2_normalize_rows: zero-norm row$"):
        ad.l2_normalize_rows(ad.const(x))
    with pytest.raises(DomainError, match="zero-norm row"):
        ad.l2_normalize_rows(ad.const(np.zeros((1, 3))))
    with np.errstate(invalid="ignore"):  # a NaN row is not a zero row: it passes through
        y = ad.l2_normalize_rows(ad.const(np.array([[np.nan, 1.0], [0.0, -2.0]]))).value
    assert np.isnan(y[0]).all() and y[1].tolist() == [0.0, -1.0]

def test_l2_normalize_backward():
    _check_op(lambda a, b: ad.mul(ad.l2_normalize_rows(a), b), (4, 5), (4, 5))


def test_scale_neg_mean():
    _check_op(lambda a: ad.mul(ad.neg(a), ad.const(2.5)), (3, 3))


def test_embedding_backward_with_repeats():
    rng = Rng(4)
    table_v = rng.normal((7, 3))
    ids = np.array([1, 4, 1, 6, 1])
    weights = rng.normal((5, 3))
    table = _param(table_v.copy())
    out = total(ad.mul(ad.embedding(table, ids), ad.const(weights)))
    ad.backward(out)

    def f(flat):
        emb = flat.reshape(7, 3)[ids]
        return float((emb * weights).sum())

    numeric = finite_diff_gradient(f, table_v.reshape(-1)).reshape(7, 3)
    assert compare_gradients(table.grad, numeric).max_relative_error < 1e-6


@pytest.mark.parametrize("ids", [[3, 0, 5, 1], [1, 4, 1, 6, 1], []])
def test_embedding_backward_matches_add_at_bit_exact(ids):
    # unique ids are scattered by assignment, repeated ones through one
    # bincount; both give add.at's bits, +0.0 for a -0.0 gradient included
    rng = Rng(7)
    ids = np.array(ids, dtype=np.int64)
    weights = rng.normal((ids.size, 3))
    weights[:, 1] = -0.0
    table = _param(rng.normal((7, 3)))
    ad.backward(total(ad.mul(ad.embedding(table, ids), ad.const(weights))))
    want = np.zeros((7, 3))
    np.add.at(want, ids, weights)
    assert np.array_equal(table.grad.view(np.int64), want.view(np.int64))
    assert not np.signbit(table.grad[:, 1]).any()


def test_embedding_backward_with_heavy_repeats_matches_add_at_bit_exact():
    # a training step's semantic tokens: thousands of ids over the LM's
    # 258-row table, each row hit about eleven times
    rng = np.random.default_rng(8)
    ids = rng.integers(258, size=2900)
    weights = rng.normal(size=(2900, 32))
    weights[rng.random(weights.shape) < 0.2] = -0.0
    weights[:, 5] = -0.0  # a column of -0.0 sums only
    table = _param(np.zeros((258, 32)))
    ad.backward(total(ad.mul(ad.embedding(table, ids), ad.const(weights))))
    want = np.zeros((258, 32))
    np.add.at(want, ids, weights)
    assert np.array_equal(table.grad.view(np.int64), want.view(np.int64))
    assert not np.signbit(table.grad[:, 5]).any()


def test_cross_entropy_backward_with_ignored_rows():
    rng = Rng(5)
    logits_v = rng.normal((6, 9))
    targets = np.array([2, -1, 4, -1, 0, 8])
    logits = _param(logits_v.copy())
    loss = ad.cross_entropy(logits, targets)
    ad.backward(loss)

    def f(flat):
        rows = flat.reshape(6, 9)[targets >= 0]
        tgt = targets[targets >= 0]
        mx = rows.max(axis=1, keepdims=True)
        lse = mx[:, 0] + np.log(np.exp(rows - mx).sum(axis=1))
        return float((lse - rows[np.arange(len(tgt)), tgt]).mean())

    numeric = finite_diff_gradient(f, logits_v.reshape(-1)).reshape(6, 9)
    assert compare_gradients(logits.grad, numeric).max_relative_error < 1e-6
    # ignored rows receive no gradient
    assert np.array_equal(logits.grad[1], np.zeros(9))



def test_cross_entropy_gradient_is_the_recomputed_softmax_bit_exact():
    # the backward normalises the forward's exponentials in place, which
    # gives the bits of recomputing them
    rng = Rng(16)
    logits, targets, lens = _param(rng.normal((7, 5)) * 4.0), np.array([1, -1, 0, 4, -1, 2, 3]), (3, 4)
    ad.backward(ad.cross_entropy(logits, targets, lens))
    sel = np.flatnonzero(targets >= 0)
    rows = logits.value[sel]
    p = np.exp(rows - rows.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    p[np.arange(sel.size), targets[sel]] -= 1.0
    n_sup = np.array([2, 3])[np.repeat([0, 1], lens)[sel]]
    want = np.zeros_like(logits.value)
    want[sel] = p * (1.0 / (2 * n_sup))[:, None]
    assert logits.grad.tobytes() == want.tobytes()

def test_cross_entropy_per_sample_means():
    # three samples' logits stacked: the loss is the mean of each sample's
    # mean over its supervised rows, however many rows each supervises
    rng = Rng(6)
    logits_v = rng.normal((7, 5))
    targets = np.array([1, -1, 3, 0, -1, 2, 4])
    lens = (3, 1, 3)
    logits = _param(logits_v.copy())
    loss = ad.cross_entropy(logits, targets, lens)
    ad.backward(loss)
    starts = np.cumsum((0,) + lens)
    per_sample = [float(ad.cross_entropy(ad.const(logits_v[a:b]), targets[a:b]).value)
                  for a, b in zip(starts[:-1], starts[1:])]
    assert float(loss.value) == pytest.approx(np.mean(per_sample), rel=1e-15)

    def f(flat):
        return float(ad.cross_entropy(ad.const(flat.reshape(7, 5)), targets, lens).value)

    numeric = finite_diff_gradient(f, logits_v.reshape(-1)).reshape(7, 5)
    assert compare_gradients(logits.grad, numeric).max_relative_error < 1e-6
    with pytest.raises(ShapeError, match="no supervised positions in sample 1"):
        ad.cross_entropy(ad.const(logits_v), np.array([1, -1, -1, -1, -1, 2, 4]), lens)
    with pytest.raises(ShapeError, match="sample lengths"):
        ad.cross_entropy(ad.const(logits_v), targets, (3, 3))


def test_cross_entropy_validates_targets():
    logits = ad.const(np.zeros((3, 4)))
    with pytest.raises(ShapeError):
        ad.cross_entropy(logits, np.array([0, 1]))
    with pytest.raises(ShapeError):
        ad.cross_entropy(logits, np.array([-1, -1, -1]))


def test_grad_accumulates_over_shared_subexpression():
    x = _param(np.array([[2.0]]))
    y = ad.add(ad.mul(x, x), x)  # d/dx (x^2 + x) = 2x + 1
    ad.backward(total(y))
    assert x.grad[0, 0] == pytest.approx(5.0)


def test_backward_requires_scalar():
    x = _param(np.ones((2, 2)))
    with pytest.raises(ShapeError):
        ad.backward(ad.add(x, x))


def test_check_gradients_harness_probes_every_param():
    rng = Rng(9)
    a = ad.const(rng.normal((3, 4)))  # the check differentiates them itself
    b = ad.const(rng.normal((4, 2)))

    def build():
        return total(ad.tanh(ad.matmul(a, b)))

    report = ad.check_gradients(build, [("a", a), ("b", b)], n_probes=10, rng=Rng(1))
    assert report.max_relative_error <= 1e-4
    assert report.max_relative_error < 1e-6


def _every_op(a, b):
    """One result of each op, from 4 x 4 tensors a and b."""
    rng = Rng(10)
    s = ad.softmax_rows(a)
    return [
        ad.add(a, b), ad.neg(a), ad.mul(a, b), ad.matmul(a, b), ad.transpose(a),
        ad.concat([a, b], axis=1), ad.narrow(a, 0, 1, 2), s,
        ad.attention(a, b, s, 2, [1, 3], [1, 3], causal=True), ad.layer_norm_rows(b), ad.silu(a),
        ad.tanh(a), ad.exp(b), ad.l2_normalize_rows(a), ad.embedding(b, [3, 0, 3]),
        ad.cross_entropy(ad.matmul(a, b), [1, -1, 0, 3], [1, 3]),
        ad.matmul(ad.const(rng.normal((1, 4))), a),
    ]


def test_ops_needing_no_gradient_build_leaves_of_the_same_bytes():
    rng = Rng(11)
    a, b = ad.const(rng.normal((4, 4))), ad.const(rng.normal((4, 4)))
    with ad.differentiating([a, b]):
        recorded = _every_op(a, b)
    assert all(t._parents and t.requires_grad for t in recorded)
    leaves = _every_op(a, b)
    for got, want in zip(leaves, recorded):
        assert got._parents == () and got._backward is None and not got.requires_grad
        assert got.value.shape == want.value.shape and got.value.tobytes() == want.value.tobytes()
    assert not a.requires_grad and a.grad is None  # its flag came back



def test_every_op_returns_a_float64_array_recording_or_not():
    rng = Rng(14)
    a, b = ad.const(rng.normal((4, 4))), ad.const(rng.normal((4, 4)))
    s, t = ad.const(0.5), ad.const(-2.0)  # a ufunc of 0-d operands returns a numpy scalar

    def results():
        return _every_op(a, b) + [ad.add(s, t), ad.neg(s), ad.mul(s, t), ad.silu(s), ad.tanh(t),
                                  ad.exp(t), ad.transpose(s), ad.add(a, ad.const([[1, 2, 3, 4]]))]

    with ad.differentiating([a, b, s]):
        recorded = results()
    leaves = results()
    for got, want in zip(leaves, recorded):
        assert type(got.value) is np.ndarray and got.value.dtype == np.float64
        assert type(want.value) is np.ndarray and want.value.dtype == np.float64
        assert got.value.tobytes() == want.value.tobytes()
    assert recorded[-8].requires_grad and not ad.neg(t).requires_grad


def test_const_and_param_convert_their_inputs():
    for raw, want in ((3, [3.0]), (True, [1.0]), ([1, 2], [1.0, 2.0]), ([[False], [True]], [0.0, 1.0]),
                      (np.arange(3, dtype=np.int32), [0.0, 1.0, 2.0]), (np.float32(0.1), [float(np.float32(0.1))])):
        for make in (ad.const, _param):
            t = make(raw)
            assert type(t.value) is np.ndarray and t.value.dtype == np.float64
            assert t.value.shape == np.shape(raw) and t.value.reshape(-1).tolist() == want
            assert t.requires_grad is (make is _param) and t._parents == () and t.grad is None
    held = np.ones((2, 3))
    assert ad.const(held).value is held  # a float64 array is held, not copied

def test_differentiating_restores_flags_after_a_raise_and_a_nested_use():
    x, y = ad.const(np.ones((2, 3))), ad.const(np.ones((2, 3)))
    with pytest.raises(ShapeError):
        with ad.differentiating([x]):
            assert ad.add(x, x)._parents == (x, x)
            ad.matmul(x, x)
    assert not x.requires_grad and ad.add(x, x)._parents == ()
    with ad.differentiating([x]):
        with ad.differentiating([x, y]):
            assert ad.add(y, y)._parents == (y, y)
        assert x.requires_grad and not y.requires_grad  # the outer block's flags came back
        assert ad.add(x, y)._parents == (x, y) and ad.add(y, y)._parents == ()
    assert not x.requires_grad and not y.requires_grad
    assert ad.add(x, y)._parents == ()


def test_tensor_outside_differentiating_gets_no_gradient():
    rng = Rng(12)
    x, w, v = ad.const(rng.normal((3, 4))), ad.const(rng.normal((4, 4))), ad.const(rng.normal((4, 2)))
    with ad.differentiating([v]):
        h = ad.tanh(ad.matmul(x, w))
        ad.backward(total(ad.matmul(h, v)))
    assert h._parents == () and w.grad is None
    assert np.array_equal(v.grad, h.value.T @ np.ones((3, 2)))


def test_backward_after_its_block_exits_raises_before_any_closure_runs():
    rng = Rng(14)
    x, w = ad.const(rng.normal((3, 4))), ad.const(rng.normal((4, 2)))
    with ad.differentiating([w]):
        loss = total(ad.matmul(x, w))
    with pytest.raises(DomainError, match="^backward: the graph's differentiated tensors no longer need"):
        ad.backward(loss)
    assert w.grad is None
    # the nodes above the matmul still read a tensor that needs a gradient,
    # so their closures would run first, were the walk not done before them
    u = ad.const(rng.normal((3, 2)))
    with ad.differentiating([u]):
        with ad.differentiating([w]):
            h = ad.matmul(x, w)
        loss = total(ad.add(h, u))
        with pytest.raises(DomainError, match="no longer need a gradient"):
            ad.backward(loss)
    assert u.grad is None and w.grad is None and h.grad is None
    with ad.differentiating([w]):
        ad.backward(total(ad.matmul(x, w)))
    assert np.array_equal(w.grad, x.value.T @ np.ones((3, 2)))


def test_backward_hands_each_parent_its_own_array():
    # add with equal shapes, concat, transpose and narrow pass a parent the
    # gradient's array or a view of it; each leaf's gradient must own its memory
    rng = Rng(13)
    a, b = _param(rng.normal((3, 4))), _param(rng.normal((3, 4)))
    y = ad.concat([ad.add(a, b), ad.transpose(ad.transpose(a)), ad.narrow(b, 0, 1, 2), a], axis=0)
    ad.backward(total(ad.mul(y, ad.const(rng.normal((11, 4))))))
    assert not np.shares_memory(a.grad, b.grad)
    assert a.grad.flags.owndata and b.grad.flags.owndata
    c = _param(rng.normal((2, 2)))
    ad.backward(total(ad.concat([c, c, ad.add(c, c)])))
    assert np.array_equal(c.grad, np.full((2, 2), 4.0))
    d, e = _param(np.zeros((2, 2))), _param(np.zeros((2, 2)))
    ad.backward(total(ad.add(ad.add(d, e), ad.tanh(d))))  # d's second gradient arrives after e's
    assert np.array_equal(d.grad, np.full((2, 2), 2.0)) and np.array_equal(e.grad, np.ones((2, 2)))


# Each op over an interior 4 x 4 input x (and a 4 x 4 parameter w), and
# whether its backward reads x's array. Attention over one segment saves
# views of its operands; over several of one size, gathered copies of their rows.
_READS_ITS_INPUT = {
    "add": (lambda x, w: ad.add(x, w), False),
    "neg": (lambda x, w: ad.neg(x), False),
    "mul": (lambda x, w: ad.mul(x, w), True),
    "matmul": (lambda x, w: ad.matmul(x, w), True),
    "transpose": (lambda x, w: ad.transpose(x), False),
    "concat": (lambda x, w: ad.concat([x, w], axis=1), False),
    "narrow": (lambda x, w: ad.narrow(x, 0, 1, 2), False),
    "softmax_rows": (lambda x, w: ad.softmax_rows(x), False),
    "attention, one segment": (lambda x, w: ad.attention(x, w, x, 2, causal=True), True),
    "attention, several segments": (lambda x, w: ad.attention(x, w, x, 2, [2, 2], [2, 2]), False),
    "layer_norm_rows": (lambda x, w: ad.layer_norm_rows(x), False),
    "silu": (lambda x, w: ad.silu(x), True),
    "tanh": (lambda x, w: ad.tanh(x), False),
    "exp": (lambda x, w: ad.exp(x), False),
    "l2_normalize_rows": (lambda x, w: ad.l2_normalize_rows(x), False),
    "embedding": (lambda x, w: ad.embedding(x, [3, 0, 3]), False),
    "cross_entropy": (lambda x, w: ad.cross_entropy(x, [1, -1, 0, 3], [1, 3]), False),
}


@pytest.mark.parametrize("op", _READS_ITS_INPUT)
def test_a_node_keeps_an_interior_input_alive_only_if_its_backward_reads_it(op):
    build, reads = _READS_ITS_INPUT[op]
    rng = Rng(15)
    u0, w0, shift = rng.normal((4, 4)), rng.normal((4, 4)), ad.const(rng.normal((4, 4)))
    grads = []
    for hold in (True, False):
        u, w = _param(u0.copy()), _param(w0.copy())
        x = ad.add(u, shift)  # an interior array: add's backward keeps only shapes
        alive = weakref.ref(x.value)
        y = ad.neg(build(x, w))  # neg keeps nothing, so only the op's node can hold x's array
        if not hold:
            del x
            assert (alive() is not None) is reads, op
        ad.backward(total(y) if y.value.ndim else y)
        grads.append([None if t.grad is None else t.grad.tobytes() for t in (u, w)])
    assert grads[0] == grads[1] and grads[0][0] is not None


def test_a_graph_node_holds_no_value():
    u = _param(np.ones((2, 3)))
    y = ad.neg(ad.tanh(u))
    (node,) = y._parents
    assert not isinstance(node, ad.Tensor) and not hasattr(node, "value") and not hasattr(node, "__dict__")
    assert node._parents == (u,) and node.requires_grad and node._backward is not None
    assert y.value.shape == (2, 3) and u._parents == () and u._backward is None


def test_batches_permute_every_epoch_afresh_and_keep_a_short_last_batch():
    items = list("abcdefg")
    got = list(ad.batches(items, 3, 2, Rng(5)))
    rng, want = Rng(5), []
    for _ in range(2):
        order = rng.permutation(len(items))
        want += [[items[i] for i in order[start : start + 3]] for start in (0, 3, 6)]
    assert got == want
    assert [len(batch) for batch in got] == [3, 3, 1] * 2
    for epoch in (got[:3], got[3:]):
        assert sorted(sum(epoch, [])) == items
    assert got[:3] != got[3:]


def _descent(losses, calls):
    """A one-weight loss `w * x` per batch x, and its step loop; `calls`
    records each forward and each update in order."""
    w = _param(1.0)

    def loss_of(x):
        calls.append(("forward", x))
        return ad.mul(w, ad.const(x))

    return w, ad.descend([w], losses, loss_of, lambda step: calls.append(("update", step)), "toy")


def test_descend_zeroes_backpropagates_and_updates_once_per_step():
    calls = []
    w, steps = _descent([2.0, 3.0], calls)
    assert list(steps) == [2.0, 3.0]
    assert calls == [("forward", 2.0), ("update", 0), ("forward", 3.0), ("update", 1)]
    assert w.grad == 3.0  # the second step's alone: zeroed in between


def test_descend_raises_on_a_non_finite_loss_before_its_update():
    calls = []
    _, steps = _descent([1.0, float("inf"), 2.0], calls)
    with pytest.raises(DomainError, match="^toy diverged: non-finite loss inf at step 1$"):
        list(steps)
    assert calls == [("forward", 1.0), ("update", 0), ("forward", float("inf"))]


def test_descend_left_early_builds_no_further_forward():
    calls = []
    _, steps = _descent([1.0, 2.0, 3.0], calls)
    for _ in steps:
        break
    steps.close()
    assert calls == [("forward", 1.0), ("update", 0)]
