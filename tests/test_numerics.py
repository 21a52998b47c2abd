import math

import numpy as np
import pytest

from rsvlm import autodiff as ad
from rsvlm.errors import DomainError, ShapeError
from rsvlm.numerics import Rng
import oracles


def _matmul(a, b):
    return ad.matmul(ad.const(np.asarray(a, dtype=np.float64)),
                     ad.const(np.asarray(b, dtype=np.float64))).value


def test_matmul_identity():
    ident = np.eye(3)
    m = np.arange(12, dtype=float).reshape(3, 4)
    assert np.array_equal(_matmul(ident, m), m)


def test_matmul_1x1():
    assert _matmul([[2.0]], [[3.0]]) == np.array([[6.0]])


def test_matmul_matches_triple_loop():
    rng = Rng(101)
    a = rng.normal((5, 4))
    b = rng.normal((4, 3))
    ref = np.zeros((5, 3))
    for i in range(5):
        for j in range(3):
            for k in range(4):
                ref[i, j] += a[i, k] * b[k, j]
    assert np.max(np.abs(_matmul(a, b) - ref)) < 1e-12


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        _matmul(np.zeros((2, 3)), np.zeros((2, 2)))


def test_matmul_associativity():
    rng = Rng(7)
    for _ in range(20):
        a, b, c = rng.normal((6, 5)), rng.normal((5, 7)), rng.normal((7, 4))
        left = _matmul(_matmul(a, b), c)
        right = _matmul(a, _matmul(b, c))
        denom = np.maximum(np.abs(left), 1.0)
        assert np.max(np.abs(left - right) / denom) < 1e-9


def test_softmax_symmetry():
    out = oracles.softmax_rows([[0.0, 0.0]])
    assert np.allclose(out, [[0.5, 0.5]], atol=1e-15)


def test_softmax_closed_form():
    out = oracles.softmax_rows([[math.log(2.0), 0.0]])
    assert np.allclose(out, [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-15)


def test_softmax_no_overflow():
    out = oracles.softmax_rows([[1000.0, 0.0]])
    assert np.array_equal(out, [[1.0, 0.0]])


def test_softmax_rows_sum_to_one_and_shift_invariant():
    rng = Rng(3)
    for _ in range(25):
        m = rng.normal((4, 6), std=3.0)
        s = oracles.softmax_rows(m)
        assert np.max(np.abs(s.sum(axis=1) - 1.0)) < 1e-12
        shifted = oracles.softmax_rows(m + 17.25)
        assert np.max(np.abs(s - shifted)) < 1e-12
        assert np.all(s >= 0)


def test_attention_single_key_returns_value_row():
    q = Rng(1).normal((4, 3))
    k = np.array([[0.3, -1.0, 2.0]])
    v = np.array([[5.0, 6.0]])
    out = oracles.scaled_dot_attention(q, k, v)
    assert np.allclose(out, np.repeat(v, 4, axis=0), atol=1e-15)


def test_attention_identical_keys_average_values():
    q = Rng(2).normal((3, 4))
    k = np.tile(Rng(3).normal((1, 4)), (5, 1))
    v = Rng(4).normal((5, 2))
    out = oracles.scaled_dot_attention(q, k, v)
    assert np.allclose(out, np.tile(v.mean(axis=0), (3, 1)), atol=1e-12)


def test_attention_matches_two_step_reference():
    rng = Rng(5)
    q, k, v = rng.normal((3, 4)), rng.normal((5, 4)), rng.normal((5, 6))
    weights = oracles.softmax_rows(q @ k.T / math.sqrt(4))
    assert np.max(np.abs(oracles.scaled_dot_attention(q, k, v) - weights @ v)) < 1e-12


def test_attention_output_is_convex_combination():
    rng = Rng(6)
    for _ in range(10):
        q, k, v = rng.normal((4, 3)), rng.normal((6, 3)), rng.normal((6, 5))
        out = oracles.scaled_dot_attention(q, k, v)
        lo, hi = v.min(axis=0), v.max(axis=0)
        assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)


def test_attention_shape_errors():
    with pytest.raises(ShapeError):
        oracles.scaled_dot_attention(np.zeros((2, 3)), np.zeros((4, 2)), np.zeros((4, 5)))
    with pytest.raises(ShapeError):
        oracles.scaled_dot_attention(np.zeros((2, 3)), np.zeros((4, 3)), np.zeros((5, 5)))


def test_finite_diff_square():
    g = oracles.finite_diff_gradient(lambda x: float(x[0] ** 2), np.array([3.0]), eps=1e-5)
    assert abs(g[0] - 6.0) < 1e-6


def test_finite_diff_constant():
    g = oracles.finite_diff_gradient(lambda x: 4.5, Rng(8).normal((6,)))
    assert np.array_equal(g, np.zeros(6))


def test_finite_diff_matches_analytic_quadratic():
    rng = Rng(9)
    a = rng.normal((5, 4))
    x0 = rng.normal((4,))

    def f(x):
        y = a @ x
        return float(y @ y)

    analytic = 2.0 * a.T @ a @ x0
    for eps in (1e-6, 1e-5, 1e-4):
        numeric = oracles.finite_diff_gradient(f, x0, eps=eps)
        report = oracles.compare_gradients(analytic, numeric)
        assert report.max_relative_error < 1e-6, report


def test_finite_diff_rejects_bad_eps():
    with pytest.raises(DomainError):
        oracles.finite_diff_gradient(lambda x: 0.0, np.zeros(2), eps=0.0)


def test_grad_report_fields():
    report = oracles.compare_gradients([1.0, 2.0], [1.0, 2.5])
    assert report.max_relative_error == pytest.approx(0.5 / 2.5)
    assert report.worst_parameter_index == (1,)
    assert not report.max_relative_error <= 1e-4


def test_rng_is_deterministic_and_matches_reference():
    mask = (1 << 64) - 1

    def mix(z):
        z &= mask
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & mask
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & mask
        return z ^ (z >> 31)

    seed = 987654321
    ref = [mix((seed + 0x9E3779B97F4A7C15 * i) & mask) for i in range(1, 9)]
    assert Rng(seed).u64(8).tolist() == ref
    a = Rng(31).normal((3, 5))
    b = Rng(31).normal((3, 5))
    assert np.array_equal(a, b)


def test_rng_stream_position_is_stateful():
    r = Rng(12)
    first = r.u64(4).tolist()
    second = r.u64(4).tolist()
    fresh = Rng(12).u64(8).tolist()
    assert first + second == fresh


def test_rng_uniform_range_and_normal_moments():
    u = Rng(77).uniform(4000)
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    z = Rng(78).normal((20000,))
    assert abs(z.mean()) < 0.03
    assert abs(z.std() - 1.0) < 0.03


def test_rng_permutation_is_a_permutation():
    p = Rng(5).permutation(40)
    assert sorted(p.tolist()) == list(range(40))
    assert np.array_equal(p, Rng(5).permutation(40))


def test_rng_spawn_streams_differ():
    r = Rng(1)
    a = r.spawn(0).u64(4).tolist()
    b = r.spawn(1).u64(4).tolist()
    assert a != b
    assert r.spawn(0).u64(4).tolist() == a
