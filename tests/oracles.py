"""Independent oracles the tests compare the package against: a row softmax
and single-head scaled-dot attention in plain numpy (composed per head,
`scaled_dot_attention` is the oracle of the fused `autodiff.attention` op),
a central-difference gradient with an elementwise comparison, `total`,
the scalar every gradient test backpropagates from, and `adamw_replay`,
AdamW applied one tensor at a time.

Matrices are plain 2-D numpy arrays at float64. Shape mismatches raise
ShapeError naming both shapes, with no silent broadcasting. None of this
shares code with the autodiff graph it checks.
"""

import math
from typing import Callable

import numpy as np

from rsvlm import autodiff as ad
from rsvlm.errors import DomainError, ShapeError
from rsvlm.numerics import REL_ERROR_FLOOR, GradReport

Matrix = np.ndarray


def _check_matrix(a, name: str) -> np.ndarray:
    m = np.asarray(a)
    if m.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {m.shape}")
    if not np.issubdtype(m.dtype, np.floating):
        m = m.astype(np.float64)
    return m


def _check_finite(out: np.ndarray, op: str) -> np.ndarray:
    if not np.all(np.isfinite(out)):
        raise DomainError(f"{op} produced non-finite entries")
    return out


def softmax_rows(m) -> Matrix:
    """Row-wise softmax with per-row max subtraction for overflow safety."""
    m = _check_matrix(m, "m")
    if m.size == 0:
        raise ShapeError(f"softmax_rows: empty input of shape {m.shape}")
    shifted = m - m.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return _check_finite(e / e.sum(axis=1, keepdims=True), "softmax_rows")


def scaled_dot_attention(q, k, v) -> Matrix:
    """softmax(q k^T / sqrt(q.cols)) v for single-head row-token matrices."""
    q = _check_matrix(q, "q")
    k = _check_matrix(k, "k")
    v = _check_matrix(v, "v")
    if q.shape[1] != k.shape[1]:
        raise ShapeError(f"attention: q/k feature dims disagree, {q.shape} vs {k.shape}")
    if k.shape[0] != v.shape[0]:
        raise ShapeError(f"attention: k/v row counts disagree, {k.shape} vs {v.shape}")
    weights = softmax_rows(q @ k.T / math.sqrt(q.shape[1]))
    return _check_finite(weights @ v, "scaled_dot_attention")


def finite_diff_gradient(f: Callable[[np.ndarray], float], x, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function, one coordinate at a time.

    Runs entirely at float64. This is the independent oracle every analytic
    gradient in the package is checked against; it never shares code with the
    backward passes it validates.
    """
    if eps <= 0:
        raise DomainError(f"finite_diff_gradient: eps must be > 0, got {eps}")
    x = np.asarray(x, dtype=np.float64).copy()
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = float(f(x))
        flat[i] = orig - eps
        fm = float(f(x))
        flat[i] = orig
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise DomainError(f"finite_diff_gradient: non-finite value at coordinate {i}")
        gflat[i] = (fp - fm) / (2.0 * eps)
    return grad


def compare_gradients(analytic, numeric, floor: float = REL_ERROR_FLOOR) -> GradReport:
    """Elementwise relative comparison of two gradient arrays of equal shape."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    if a.shape != n.shape:
        raise ShapeError(f"compare_gradients: shape mismatch, {a.shape} vs {n.shape}")
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    rel = np.abs(a - n) / denom
    worst = np.unravel_index(int(np.argmax(rel)), rel.shape) if rel.size else (0,)
    return GradReport(
        max_relative_error=float(rel.max()) if rel.size else 0.0,
        worst_parameter_index=worst,
        analytic=float(a[worst]) if rel.size else 0.0,
        numeric=float(n[worst]) if rel.size else 0.0,
    )


def total(x: ad.Tensor) -> ad.Tensor:
    """The sum of a 2-D tensor's entries as a 1 x 1 tensor: a ones row times
    `x` times a ones column. Its gradient into `x` is exactly 1.0 in every
    entry, so a test's gradients are those of the op under test alone."""
    rows, cols = x.value.shape
    return ad.matmul(ad.matmul(ad.const(np.ones((1, rows))), x), ad.const(np.ones((cols, 1))))


def adamw_replay(values, grads, lrs, weight_decay: float, betas=(0.9, 0.999), eps: float = 1e-8) -> list:
    """Decoupled weight-decay Adam run tensor by tensor from `values`: per
    step, `grads` holds each tensor's gradient (None for a zero one), and
    `lrs` holds each tensor's learning rate. Returns every tensor's values
    after each step."""
    b1, b2 = betas
    values = [np.array(v, dtype=np.float64) for v in values]
    m = [np.zeros_like(v) for v in values]
    s = [np.zeros_like(v) for v in values]
    out = []
    for t, step_grads in enumerate(grads, start=1):
        for i, (g, lr) in enumerate(zip(step_grads, lrs)):
            g = np.zeros_like(values[i]) if g is None else g
            m[i] = b1 * m[i] + (1.0 - b1) * g
            s[i] = b2 * s[i] + (1.0 - b2) * g * g
            m_hat = m[i] / (1.0 - b1 ** t)
            s_hat = s[i] / (1.0 - b2 ** t)
            values[i] = values[i] - lr * (m_hat / (np.sqrt(s_hat) + eps) + weight_decay * values[i])
        out.append([v.copy() for v in values])
    return out
