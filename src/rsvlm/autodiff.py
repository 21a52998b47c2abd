"""Minimal reverse-mode autodiff over float64 numpy arrays.

Every trainable module in the package builds its forward pass from the ops
below, so one backward implementation serves the whole model. The engine is
deliberately small: 2-D values (plus scalars), no views of mutable state, no
in-place graph mutation, fully deterministic. `attention` is the one op that
works on 4-D arrays, and only inside: it reshapes the stacked rows of
same-sized samples to (samples, heads, T, dk) and hands back 2-D values and
gradients. The tests check every op against the independent numpy oracles
in `tests/oracles.py`; `check_gradients` is the sampled central-difference
check that `rsvlm grad-check` runs.

One rule decides what records a graph: no tensor needs a gradient except
inside `differentiating(tensors)`, which marks those tensors for the length
of the block. An op records its parents and a backward only when one of its
parents needs a gradient; otherwise its result is a leaf, with no parents,
no backward and no gradient. The training loops and the gradient check's
analytic pass differentiate; every other forward (generation, the
retriever's encoders, a sample's loss, the gradient check's probes) builds
leaves without asking.

Values live in tensors, never in the graph. A recorded op result is a
`Tensor` holding its value and a `Node`, which holds the gradient in
flight, the result's shape, the parents' nodes and the op's backward
closure, and no value; a leaf is its own node. So an interior array stays
alive only while its caller holds the result or a backward closure reads
it, and each closure keeps only the arrays its backward reads: `mul` and
`matmul` their operands, `silu` its input and sigmoid, `attention` its
passes, `layer_norm_rows` its output and inverse deviations,
`softmax_rows`, `tanh` and `exp` their outputs, `l2_normalize_rows` its
output and norms, `cross_entropy` the exponentials of its supervised
rows. `add`, `neg`, `transpose`, `concat`, `narrow` and `embedding` keep
no array but `embedding`'s ids; what they need of their inputs is the
shapes on their parents' nodes. A closure never holds a tensor: `backward`
hands it its gradient and its parents' nodes, under its op's parameter
names, so a forward that records nothing builds no node and saves
nothing it would not compute anyway.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, ShapeError
from .numerics import GradReport, Rng, relative_error

CAUSAL_BIAS = -1e30  # the score of a key a causal row may not see
LAYER_NORM_EPS = 1e-5  # added to each row's variance
GRAD_CHECK_EPS = 1e-5  # the central-difference step of check_gradients


class Node:
    """A recorded op result's place in the graph: the gradient in flight,
    the result's shape, the nodes of its parents and its backward closure.
    It holds no value."""

    __slots__ = ("grad", "requires_grad", "shape", "_parents", "_backward")


class Tensor:
    """A float64 `value`. A leaf (a parameter, a constant, or the result of
    an op that records nothing) is its own node, and `grad` holds the
    gradient `backward` leaves on it. A recorded op result holds its
    `Node` in `_node`; its gradient lives there, and its `grad` stays None."""

    __slots__ = ("value", "grad", "requires_grad", "_node")

    def __init__(self, value):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.requires_grad, self._node = False, None

    @property
    def shape(self):
        return self.value.shape

    @property
    def _parents(self) -> tuple:
        """The nodes of a recorded result's parents; () for a leaf."""
        return () if self._node is None else self._node._parents

    @property
    def _backward(self):
        return None if self._node is None else self._node._backward

    def __repr__(self):
        return f"Tensor(shape={self.value.shape}, requires_grad={self.requires_grad})"

    def __add__(self, other):
        return add(self, other)


_new_tensor, _new_node = Tensor.__new__, Node.__new__


def _result(value: np.ndarray, parents: tuple, backward) -> Tensor:
    """An op's result, which holds `value`, the float64 array the op
    computed, without converting it: recorded, with a node over the nodes
    of `parents`, when one of them needs a gradient, else a leaf."""
    t = _new_tensor(Tensor)
    # a ufunc of 0-d operands returns a numpy scalar, not an array
    t.value = value if type(value) is np.ndarray else np.asarray(value)
    t.grad = None
    for p in parents:
        if p.requires_grad:
            node = _new_node(Node)
            node.grad, node.requires_grad, node.shape, node._backward = None, True, t.value.shape, backward
            node._parents = tuple(x if x._node is None else x._node for x in parents)
            t.requires_grad, t._node = True, node
            return t
    t.requires_grad, t._node = False, None
    return t


@contextmanager
def differentiating(tensors):
    """Mark `tensors` as needing a gradient while the block runs, so the ops
    over them record a graph and `backward` inside the block reaches them;
    restore their flags after it, also when it raises."""
    saved = [(t, t.requires_grad) for t in tensors]
    try:
        for t, _ in saved:
            t.requires_grad = True
        yield
    finally:
        for t, flag in saved:
            t.requires_grad = flag


def const(value) -> Tensor:
    return Tensor(value)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add g to t's gradient. The first g becomes the gradient itself, so a
    backward closure hands each parent an array that nothing else holds: a
    fresh one, or a copy of a view or of an array it also hands another."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a broadcast gradient back down to `shape`."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def zero_grads(tensors) -> None:
    for t in tensors:
        t.grad = None


def backward(loss: Tensor) -> None:
    """Backpropagate from a scalar loss through the whole graph, once: a
    backward closure may reuse its forward's arrays in place. Each recorded
    node's closure runs as `node._backward(node.grad, *node._parents)`: it
    gets the gradient of its result and its parents' nodes, and reads no
    value but the arrays it saved in the forward. Only the leaves
    (parameters and constants) keep a `.grad`: an interior node's is
    dropped once its backward has passed it on, so the backward holds the
    gradients still in flight, not one per node.

    A graph is backpropagated inside the `differentiating` block that built
    it. Called after that block exits, a recorded node none of whose parents
    needs a gradient any more raises DomainError, before any backward
    closure runs. Still undetected: the inner block of two nested ones
    exiting alone, when each node that reads one of its tensors also reads
    one that still needs a gradient (an outer block's tensor, or a node
    built from one); the inner block's tensors then get no gradient."""
    if loss.value.size != 1:
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.value.shape}")
    root = loss if loss._node is None else loss._node
    topo = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        live = False
        for p in node._parents:
            if p.requires_grad:
                live = True
                if id(p) not in seen:
                    stack.append((p, False))
        if node._parents and not live:
            raise DomainError("backward: the graph's differentiated tensors no longer need a gradient; "
                              "call backward inside the differentiating block that built the graph")
    root.grad = np.ones_like(loss.value)
    for node in reversed(topo):
        if node._backward is not None:
            if node.grad is not None:
                node._backward(node.grad, *node._parents)
            node.grad = None  # every contribution has arrived and been passed on


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.value + b.value

    def bw(g, a, b):
        ga, gb = _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)
        _accumulate(a, ga)
        _accumulate(b, np.array(gb) if gb is ga else gb)

    return _result(out, (a, b), bw)


def neg(a: Tensor) -> Tensor:
    def bw(g, a):
        _accumulate(a, -g)

    return _result(-a.value, (a,), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    x, y = a.value, b.value

    def bw(g, a, b):
        _accumulate(a, _unbroadcast(g * y, x.shape))
        _accumulate(b, _unbroadcast(g * x, y.shape))

    return _result(x * y, (a, b), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    x, y = a.value, b.value
    if x.ndim != 2 or y.ndim != 2:
        raise ShapeError(f"matmul: need 2-D operands, got {x.shape} and {y.shape}")
    if x.shape[1] != y.shape[0]:
        raise ShapeError(f"matmul: inner dimensions disagree, {x.shape} x {y.shape}")

    def bw(g, a, b):
        if a.requires_grad:
            _accumulate(a, g @ y.T)
        if b.requires_grad:
            _accumulate(b, x.T @ g)

    return _result(x @ y, (a, b), bw)


def transpose(a: Tensor) -> Tensor:
    def bw(g, a):
        _accumulate(a, np.array(g.T))

    return _result(a.value.T, (a,), bw)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = tuple(tensors)

    def bw(g, *tensors):
        offset = 0
        for t in tensors:
            size = t.shape[axis]
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(offset, offset + size)
            _accumulate(t, np.array(g[tuple(sl)]))
            offset += size

    return _result(np.concatenate([t.value for t in tensors], axis=axis), tensors, bw)


def narrow(a: Tensor, axis: int, start: int, size: int) -> Tensor:
    """Contiguous slice along one axis."""
    if start < 0 or start + size > a.value.shape[axis]:
        raise ShapeError(
            f"narrow: slice [{start}, {start + size}) out of range for axis {axis} of {a.value.shape}"
        )
    sl = [slice(None)] * a.value.ndim
    sl[axis] = slice(start, start + size)
    sl = tuple(sl)
    out = a.value[sl]

    def bw(g, a):
        full = np.zeros(a.shape)
        full[sl] = g
        _accumulate(a, full)

    return _result(out, (a,), bw)


def softmax_rows(a: Tensor) -> Tensor:
    x = a.value
    y = np.exp(x - x.max(axis=1, keepdims=True))
    y /= y.sum(axis=1, keepdims=True)

    def bw(g, a):
        _accumulate(a, y * (g - (g * y).sum(axis=1, keepdims=True)))

    return _result(y, (a,), bw)


def _causal_hidden(q_len: int, k_len: int) -> np.ndarray:
    """The keys the last q_len of k_len rows may not see: row j sees keys
    up to k_len - q_len + j. Built from two aranges, so no k_len x k_len
    triangle is kept."""
    return np.arange(k_len) > np.arange(k_len - q_len, k_len)[:, None]


def _split(x: np.ndarray, g: int, n: int, heads: int) -> np.ndarray:
    """(g * n) x d rows -> g x heads x n x dk."""
    return x.reshape(g, n, heads, -1).transpose(0, 2, 1, 3)


def _merge(x: np.ndarray) -> np.ndarray:
    """g x heads x n x dk -> (g * n) x d rows."""
    g, heads, n, dk = x.shape
    return x.transpose(0, 2, 1, 3).reshape(g * n, heads * dk)


def _rows(starts: list[int], n: int):
    """Rows of the segments of length n that begin at `starts`: a slice for
    one segment, so a size that only one sample has costs no gathered copy."""
    if len(starts) == 1:
        return slice(starts[0], starts[0] + n)
    return (np.array(starts)[:, None] + np.arange(n)).reshape(-1)


_EVERY_ROW = slice(None)  # the rows of a lone segment, which is neither grouped nor gathered


def _scatter(parts, total: int, d: int) -> np.ndarray:
    """total x d rows from (rows, values) parts that cover each row once."""
    if parts[0][0] is _EVERY_ROW:
        return parts[0][1]
    out = np.empty((total, d))
    for idx, x in parts:
        out[idx] = x
    return out


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int, q_lens=None, k_lens=None,
              causal: bool = False) -> Tensor:
    """Multi-head scaled-dot attention of stacked query rows over stacked key
    and value rows, one segment per sample: segment i's q_lens[i] queries
    attend only to its k_lens[i] keys (one segment of all rows when the
    lengths are not given). Head h owns columns [h*dk, (h+1)*dk),
    dk = d / heads, and its scores are (q_h k_h^T) / sqrt(dk). With
    `causal`, row j of a segment sees its keys up to k_len - q_len + j, so
    new rows that follow cached ones see the cache and their own prefix.

    Segments of the same (q_len, k_len) run as one batched pass, so each
    segment's numbers are those of a one-segment call. The backward reuses
    the saved probabilities and computes no gradient for an operand that
    does not require one."""
    tq, d = q.value.shape
    tk = k.value.shape[0]
    if k.value.shape[1] != d or v.value.shape[1] != d:
        raise ShapeError(f"attention: q/k/v widths disagree, {q.value.shape}, {k.value.shape}, {v.value.shape}")
    if v.value.shape[0] != tk:
        raise ShapeError(f"attention: k/v row counts disagree, {k.value.shape} vs {v.value.shape}")
    if heads < 1 or d % heads != 0:
        raise ShapeError(f"attention: dim {d} not divisible by heads {heads}")
    q_lens = (tq,) if q_lens is None else tuple(q_lens)
    k_lens = (tk,) if k_lens is None else tuple(k_lens)
    if (len(q_lens) != len(k_lens) or sum(q_lens) != tq or sum(k_lens) != tk
            or min(q_lens) < 1 or min(k_lens) < 1):
        raise ShapeError(f"attention: segment lengths {q_lens} over {k_lens} must be positive, "
                         f"pair up and count the {tq} query and {tk} key rows")
    c = 1.0 / math.sqrt(d // heads)
    # (q_len, k_len, query rows, key rows, segments) of each batched pass
    if len(q_lens) == 1:
        segments = [(tq, tk, _EVERY_ROW, _EVERY_ROW, 1)]
    else:
        # (q_len, k_len) -> the first query and key row of each such segment
        groups: dict[tuple[int, int], tuple[list[int], list[int]]] = {}
        q0 = k0 = 0
        for a, b in zip(q_lens, k_lens):
            q_starts, k_starts = groups.setdefault((a, b), ([], []))
            q_starts.append(q0)
            k_starts.append(k0)
            q0, k0 = q0 + a, k0 + b
        segments = [(a, b, _rows(q_starts, a), _rows(k_starts, b), len(q_starts))
                    for (a, b), (q_starts, k_starts) in groups.items()]
    passes = []
    for a, b, qi, ki, g in segments:
        if causal and a > b:
            raise ShapeError(f"attention: a causal segment of {a} queries over {b} keys")
        qh, kh, vh = _split(q.value[qi], g, a, heads), _split(k.value[ki], g, b, heads), \
            _split(v.value[ki], g, b, heads)
        s = qh @ kh.transpose(0, 1, 3, 2)
        s *= c
        hidden = _causal_hidden(a, b) if causal and a > 1 else None  # a lone row sees every key
        if hidden is not None:
            np.copyto(s, CAUSAL_BIAS, where=hidden)
        s -= s.max(axis=3, keepdims=True)
        if hidden is not None:  # exp of a hidden score is 0; keep it off numpy's slow underflow path
            np.copyto(s, 0.0, where=hidden)
        p = np.exp(s, out=s)
        if hidden is not None:
            np.copyto(p, 0.0, where=hidden)
        p /= p.sum(axis=3, keepdims=True)
        passes.append((qi, ki, qh, kh, vh, p))
    out = _scatter([(qi, _merge(p @ vh)) for qi, _, _, _, vh, p in passes], tq, d)

    def bw(g, q, k, v):
        gq, gk, gv = [], [], []
        for qi, ki, qh, kh, vh, p in passes:
            gh = _split(g[qi], qh.shape[0], qh.shape[2], heads)
            if v.requires_grad:
                gv.append((ki, _merge(p.transpose(0, 1, 3, 2) @ gh)))
            if q.requires_grad or k.requires_grad:
                ds = gh @ vh.transpose(0, 1, 3, 2)  # the gradient of p, then of the scores
                ds -= (ds * p).sum(axis=3, keepdims=True)
                ds *= p
                ds *= c
                if q.requires_grad:
                    gq.append((qi, _merge(ds @ kh)))
                if k.requires_grad:
                    gk.append((ki, _merge(ds.transpose(0, 1, 3, 2) @ qh)))
        for t, parts, total in ((q, gq, tq), (k, gk, tk), (v, gv, tk)):
            if parts:
                _accumulate(t, _scatter(parts, total, d))

    return _result(out, (q, k, v), bw)


def layer_norm_rows(a: Tensor) -> Tensor:
    """Per-row standardization without learned affine parameters. The
    reductions and divisions are those of np.mean and np.var, done once:
    np.add.reduce, which .sum and np.mean call, then a division by n."""
    x = a.value
    n = x.shape[1]
    xc = x - np.add.reduce(x, axis=1, keepdims=True) / n
    inv = 1.0 / np.sqrt(np.add.reduce(xc * xc, axis=1, keepdims=True) / n + LAYER_NORM_EPS)
    y = xc * inv

    def bw(g, a):
        gm = np.add.reduce(g, axis=1, keepdims=True) / n
        gy = np.add.reduce(g * y, axis=1, keepdims=True) / n
        _accumulate(a, inv * (g - gm - y * gy))

    return _result(y, (a,), bw)


def silu(a: Tensor) -> Tensor:
    x = a.value
    sig = 1.0 / (1.0 + np.exp(-x))
    y = x * sig

    def bw(g, a):
        _accumulate(a, g * sig * (1.0 + x * (1.0 - sig)))

    return _result(y, (a,), bw)


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.value)

    def bw(g, a):
        _accumulate(a, g * (1.0 - y * y))

    return _result(y, (a,), bw)


def exp(a: Tensor) -> Tensor:
    y = np.exp(a.value)

    def bw(g, a):
        _accumulate(a, g * y)

    return _result(y, (a,), bw)


def l2_normalize_rows(a: Tensor) -> Tensor:
    x = a.value
    norms = np.sqrt((x * x).sum(axis=1, keepdims=True))
    if not norms.all():  # a NaN norm is not zero, as with norms == 0.0
        raise DomainError("l2_normalize_rows: zero-norm row")
    y = x / norms

    def bw(g, a):
        _accumulate(a, (g - y * (g * y).sum(axis=1, keepdims=True)) / norms)

    return _result(y, (a,), bw)


def embedding(table: Tensor, ids) -> Tensor:
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ShapeError(f"embedding: ids must be 1-D, got shape {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.value.shape[0]):
        raise ShapeError(f"embedding: id out of range for table of {table.value.shape[0]} rows")
    out = table.value[ids]

    def bw(g, table):
        n, d = table.shape
        if ids.size and np.bincount(ids).max() > 1:
            # one bin per (id, column): bincount adds each bin's entries in
            # id order to 0.0, the sums np.add.at makes, in one pass
            bins = (ids[:, None] * d + np.arange(d)).reshape(-1)
            full = np.bincount(bins, weights=g.reshape(-1), minlength=n * d).reshape(n, d)
        else:  # each row is written once; + 0.0 turns -0.0 into the +0.0 that add.at gives
            full = np.zeros((n, d))
            full[ids] = g + 0.0
        _accumulate(table, full)

    return _result(out, (table,), bw)


def cross_entropy(logits: Tensor, targets, lens=None) -> Tensor:
    """Mean softmax cross-entropy over the rows whose target id is >= 0.
    With `lens`, the row counts of the samples whose logits are stacked, it
    is the mean over samples of each sample's mean over its supervised
    rows; every sample needs one."""
    targets = np.asarray(targets, dtype=np.int64)
    rows_total = logits.value.shape[0]
    if targets.shape != (rows_total,):
        raise ShapeError(
            f"cross_entropy: targets length {targets.shape} misaligned with logits {logits.value.shape}"
        )
    lens = (rows_total,) if lens is None else tuple(lens)
    if min(lens) < 0 or sum(lens) != rows_total:
        raise ShapeError(f"cross_entropy: sample lengths {lens} do not sum to {rows_total} rows")
    sel = np.nonzero(targets >= 0)[0]
    seg = np.repeat(np.arange(len(lens)), lens)[sel]
    n_sup = np.bincount(seg, minlength=len(lens))
    if not n_sup.all():
        raise ShapeError(f"cross_entropy: no supervised positions in sample {int(np.argmin(n_sup))}")
    rows = logits.value[sel]
    tgt = targets[sel]
    if tgt.max() >= rows.shape[1]:
        raise ShapeError(f"cross_entropy: target id exceeds vocab {rows.shape[1]}")
    mx = rows.max(axis=1, keepdims=True)
    e = np.exp(rows - mx)
    lse = mx[:, 0] + np.log(e.sum(axis=1))
    picked = rows[np.arange(sel.size), tgt]
    starts = np.cumsum(n_sup) - n_sup
    out = np.array((np.add.reduceat(lse - picked, starts) / n_sup).mean())

    def bw(g, logits):
        p = e  # the forward's exponentials, normalised in place: the backward runs once
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(sel.size), tgt] -= 1.0
        full = np.zeros(logits.shape)
        full[sel] = p * (float(g) / (len(lens) * n_sup[seg]))[:, None]
        _accumulate(logits, full)

    return _result(out, (logits,), bw)


def batches(items, size: int, epochs: int, rng: Rng):
    """`items` in lists of `size`, a fresh `rng.permutation` each epoch; its last may be short."""
    for _ in range(epochs):
        order = rng.permutation(len(items))
        for start in range(0, len(items), size):
            yield [items[i] for i in order[start : start + size]]


def descend(params, batches, loss_of: Callable, update: Callable, what: str):
    """The training step loop: per batch, zero every gradient of `params`, build
    `loss_of(batch)`, raise DomainError unless it is finite, backpropagate, run
    `update(step)` and yield the loss. A loop left early builds no further forward."""
    for step, batch in enumerate(batches):
        zero_grads(params)
        loss = loss_of(batch)
        if not np.isfinite(loss.value):
            raise DomainError(f"{what} diverged: non-finite loss {loss.value} at step {step}")
        backward(loss)
        value = float(loss.value)
        del loss  # so the next step's forward does not find this graph alive
        update(step)
        yield value


def check_gradients(
    build_loss: Callable[[], Tensor],
    params: Sequence[tuple],
    *,
    n_probes: int = 200,
    rng: Rng | None = None,
) -> GradReport:
    """Probe analytic gradients of named parameters against central differences.

    `build_loss` must rebuild the scalar loss graph (one entry, of any
    shape) from the parameters' current values. Only the analytic pass
    differentiates; the probes, which read only the loss value, build
    leaves. Every parameter receives at least one probe; remaining probes
    are spread uniformly over all coordinates.
    """
    params = [(name, t) for name, t in params]
    rng = rng or Rng(0)
    zero_grads(t for _, t in params)
    with differentiating(t for _, t in params):
        backward(build_loss())  # the only graph the check builds dies here
    analytic = {name: (np.zeros_like(t.value) if t.grad is None else t.grad.copy()) for name, t in params}

    sizes = [t.value.size for _, t in params]
    total = sum(sizes)
    probes = []
    for pi, (name, t) in enumerate(params):
        probes.append((pi, int(rng.u64(1)[0] % np.uint64(sizes[pi]))))
    extra = max(n_probes - len(probes), 0)
    if extra:
        offsets = np.cumsum([0] + sizes)
        flat_picks = rng.u64(extra) % np.uint64(total)
        for pick in flat_picks.tolist():
            pi = int(np.searchsorted(offsets, pick, side="right")) - 1
            probes.append((pi, int(pick - offsets[pi])))

    worst = GradReport(0.0, ("", 0), 0.0, 0.0)
    for pi, flat_idx in probes:
        name, t = params[pi]
        buf = t.value.reshape(-1)
        orig = buf[flat_idx]
        buf[flat_idx] = orig + GRAD_CHECK_EPS
        fp = build_loss().value.item()
        buf[flat_idx] = orig - GRAD_CHECK_EPS
        fm = build_loss().value.item()
        buf[flat_idx] = orig
        numeric = (fp - fm) / (2.0 * GRAD_CHECK_EPS)
        ana = float(analytic[name].reshape(-1)[flat_idx])
        err = relative_error(ana, numeric)
        if err >= worst.max_relative_error:
            idx = np.unravel_index(flat_idx, t.value.shape)
            worst = GradReport(err, (name,) + tuple(int(i) for i in idx), ana, numeric)
    return worst
