import numpy as np
import pytest

from rsvlm import autodiff as ad
from rsvlm import expert_layer as ex
from rsvlm.errors import ShapeError
from rsvlm.numerics import Rng, ShapeRng
from oracles import softmax_rows, total


# Two image rows, one row each of levels 1 and 2, one query row.
LEVELS = [0, 0, 1, 2, 0]


def _expert(u, v, x_masked):
    """One expert's bottleneck, x @ u @ v, through the graph ops the block uses."""
    return ad.matmul(ad.matmul(ad.const(x_masked), ad.const(u)), ad.const(v)).value


def _gates(w_g, hidden, row_levels):
    return ex.gate_weights_graph(ad.const(w_g), ad.const(hidden), row_levels).value


def _block(params, hidden, row_levels):
    return ex.expert_block_graph(params, ad.const(hidden), row_levels).value


def _gates_ref(w_g, hidden, row_levels):
    """Softmax rows from the numpy oracle; one-hot rows for semantic tokens."""
    gates = softmax_rows(hidden @ w_g)
    for t, level in enumerate(row_levels):
        if level:
            gates[t] = np.eye(w_g.shape[1])[level - 1]
    return gates


def _layer(d_h=12, d_r=3, levels=2, seed=12):
    return ex.init_expert_layer(d_h, d_r, levels, Rng(seed))


def _randomize(params, rng, std=1.0):
    for e in params.experts:
        e.v.value = rng.normal(e.v.value.shape, std=std)
    params.gate_w.value = rng.normal(params.gate_w.value.shape, std=std)


def _tokens(d_h=12, seed=13):
    return Rng(seed).normal((7, d_h)), [0, 0, 1, 1, 2, 2, 0]


def _masks(row_levels, levels):
    """The masked formulation's input masks, the oracle of gate-only
    routing: expert l reads the image, query and level-l rows."""
    row_levels = np.array(row_levels)
    return [((row_levels == 0) | (row_levels == l)).astype(np.float64) for l in range(1, levels + 1)]


def _expert_outputs(params, x, row_levels):
    masks = _masks(row_levels, len(params.experts))
    return [_expert(e.u.value, e.v.value, masks[l][:, None] * x) for l, e in enumerate(params.experts)]


def test_route_examples():
    # the rows each expert reaches: every level-0 row and its own level's rows
    rng = Rng(27)
    gates = _gates(rng.normal((6, 2)), rng.normal((5, 6)), LEVELS)
    assert (gates[:, 0] > 0).tolist() == [1, 1, 1, 0, 1]
    assert (gates[:, 1] > 0).tolist() == [1, 1, 0, 1, 1]


def test_route_single_level_all_ones():
    rng = Rng(28)
    gates = _gates(rng.normal((6, 1)), rng.normal((3, 6)), [0, 1, 0])
    assert gates[:, 0].tolist() == [1, 1, 1]


def test_mask_partition_property():
    # every row's gate is exactly its level's one-hot or exactly its softmax row
    rng = Rng(0)
    for _ in range(50):
        levels = 1 + int(rng.u64(1)[0] % np.uint64(4))
        t = int(rng.u64(1)[0] % np.uint64(13))
        row_levels = (rng.u64(t) % np.uint64(levels + 1)).astype(np.int64)
        hidden = rng.normal((t, 6))
        w_g = rng.normal((6, levels))
        gates = _gates(w_g, hidden, row_levels)
        soft = ad.softmax_rows(ad.const(hidden @ w_g)).value
        routed = row_levels > 0
        assert np.array_equal(gates[~routed], soft[~routed])
        assert np.array_equal(gates[routed], np.eye(levels)[row_levels[routed] - 1])


def test_segmented_tokens_validation():
    params = _layer(d_h=4, d_r=2)
    hidden = Rng(1).normal((5, 4))
    _block(params, hidden, LEVELS)
    for bad in ([0, 0, 1, 2], [0, 0, 1, 2, 0, 0], [LEVELS], [0, -1, 1, 2, 0], [0, 0, 1, 3, 0]):
        with pytest.raises(ShapeError, match=r"need \(5,\) with values in 0\.\.2"):
            _block(params, hidden, bad)
    # against one hidden row, a longer level array would broadcast
    with pytest.raises(ShapeError, match=r"shape \(2,\): need \(1,\)"):
        _block(params, hidden[:1], [0, 0])
    # rows of the wrong width meet the gate's d_h rows
    with pytest.raises(ShapeError):
        _block(params, hidden[:, :3], LEVELS)


def test_expert_forward_zero_u():
    x = Rng(2).normal((4, 6))
    out = _expert(np.zeros((6, 2)), Rng(3).normal((2, 6)), x)
    assert np.array_equal(out, np.zeros((4, 6)))


def test_expert_param_count_paper_scale():
    params = ex.init_expert_layer(3584, 512, 3, ShapeRng())
    assert params.experts[0].u.value.size + params.experts[0].v.value.size == 3_670_016
    # a gated-FFN expert has three d_h x d_i projections (gate, up, down)
    assert 3 * ex.init_ffn(3584, 18944, 3584, ShapeRng()).w1.value.size == 203_685_888


def test_expert_forward_matches_matmul_oracle():
    rng = Rng(4)
    x, u, v = rng.normal((5, 6)), rng.normal((6, 3)), rng.normal((3, 6))
    oracle = (x @ u) @ v
    assert np.max(np.abs(_expert(u, v, x) - oracle)) < 1e-12


def test_expert_forward_masked_rows_stay_zero():
    # expert 1 reads the level-2 row 3, and its gate weighs that row by exactly zero
    rng = Rng(5)
    x = rng.normal((5, 6))
    out = _expert(rng.normal((6, 3)), rng.normal((3, 6)), x)
    gates = _gates(rng.normal((6, 2)), x, LEVELS)
    assert np.array_equal((out * gates[:, 0:1])[3], np.zeros(6))


def test_gate_weights_zero_matrix_uniform():
    row_levels = [0, 0, 1, 2, 0]
    hidden = Rng(6).normal((5, 6))
    gates = _gates(np.zeros((6, 3)), hidden, row_levels)
    for t, level in enumerate(row_levels):
        if not level:
            assert np.allclose(gates[t], [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_gate_weights_semantic_rows_one_hot():
    gates = _gates(Rng(7).normal((6, 3)), Rng(8).normal((5, 6)), [0, 1, 2, 3, 0])
    assert gates[2].tolist() == [0.0, 1.0, 0.0]
    assert gates[1].tolist() == [1.0, 0.0, 0.0]
    assert gates[3].tolist() == [0.0, 0.0, 1.0]


def test_gate_weights_rows_sum_to_one():
    rng = Rng(9)
    gates = _gates(rng.normal((6, 2)), rng.normal((5, 6)), LEVELS)
    assert np.max(np.abs(gates.sum(axis=1) - 1.0)) < 1e-12
    assert np.all(gates >= 0.0)


def test_merge_experts_identities():
    rng = Rng(10)
    # one level: every gate is exactly one, so the merge is the lone expert
    params = _layer(levels=1, seed=10)
    _randomize(params, rng)
    x = rng.normal((4, 12))
    row_levels = [0, 1, 0, 0]
    assert np.array_equal(_block(params, x, row_levels), _expert_outputs(params, x, row_levels)[0])
    # semantic rows take their own level's output with coefficient one
    params = _layer(levels=2, seed=10)
    _randomize(params, rng)
    x, row_levels = _tokens(seed=10)
    hs = _expert_outputs(params, x, row_levels)
    out = _block(params, x, row_levels)
    for t, level in enumerate(row_levels):
        if level:
            assert np.array_equal(out[t], hs[level - 1][t])


def test_merge_experts_matches_per_row_oracle():
    rng = Rng(11)
    params = _layer(levels=3, seed=11)
    _randomize(params, rng)
    row_levels = [0, 0, 1, 2, 3, 0]
    x = rng.normal((6, 12))
    hs = _expert_outputs(params, x, row_levels)
    gates = _gates_ref(params.gate_w.value, x, row_levels)
    oracle = np.zeros((6, 12))
    for t in range(6):
        for l in range(3):
            oracle[t] += gates[t, l] * hs[l][t]
    assert np.max(np.abs(_block(params, x, row_levels) - oracle)) < 1e-12


def test_block_zero_experts_merge_exactly_zero():
    params = _layer()
    for e in params.experts:
        e.u.value[:] = 0.0
        e.v.value[:] = 0.0
    x, row_levels = _tokens()
    assert np.array_equal(_block(params, x, row_levels), np.zeros_like(x))


def test_ffn_matches_silu_oracle():
    ffn = ex.init_ffn(12, 16, 12, Rng(12).spawn(100))
    x, _ = _tokens()
    pre = x @ ffn.w1.value + ffn.b1.value
    act = pre * (1.0 / (1.0 + np.exp(-pre)))
    assert np.array_equal(ex.ffn_graph(ffn, ad.const(x)).value, act @ ffn.w2.value + ffn.b2.value)


def test_fresh_layer_merge_exactly_zero():
    # v initialized to zero: the expert path contributes exactly nothing
    params = _layer(seed=21)
    x, row_levels = _tokens(seed=22)
    assert np.array_equal(_block(params, x, row_levels), np.zeros_like(x))


def test_block_matches_straight_line_oracle():
    params = _layer(seed=14)
    _randomize(params, Rng(15))
    x, row_levels = _tokens(seed=16)

    masks = _masks(row_levels, 2)
    hs = [
        (masks[l][:, None] * x) @ params.experts[l].u.value @ params.experts[l].v.value
        for l in range(2)
    ]
    gates = _gates_ref(params.gate_w.value, x, row_levels)
    oracle = sum(gates[:, l : l + 1] * hs[l] for l in range(2))
    assert np.max(np.abs(_block(params, x, row_levels) - oracle)) < 1e-12


def test_masked_independence_bit_exact():
    params = _layer(seed=17)
    rng = Rng(18)
    for e in params.experts:
        e.v.value = rng.normal(e.v.value.shape)
    x, row_levels = _tokens(seed=19)
    level_2 = np.array(row_levels) == 2
    perturbed = x.copy()
    perturbed[level_2] += rng.normal((int(level_2.sum()), x.shape[1]))
    params.gate_w.value = rng.normal(params.gate_w.value.shape)
    base = _block(params, x, row_levels)
    # perturbing the level-2 rows leaves every other row unchanged
    assert np.array_equal(_block(params, perturbed, row_levels)[~level_2], base[~level_2])
    # replacing expert 1 leaves every level-2 row unchanged
    params.experts[0].u.value = rng.normal(params.experts[0].u.value.shape)
    params.experts[0].v.value = rng.normal(params.experts[0].v.value.shape)
    assert np.array_equal(_block(params, x, row_levels)[level_2], base[level_2])


def test_expert_layer_rank_validation():
    with pytest.raises(ShapeError):
        ex.init_expert_layer(8, 8, 2, Rng(0))


def test_block_rejects_out_of_range_level():
    params = _layer(levels=2)
    with pytest.raises(ShapeError, match=r"values in 0\.\.2"):
        _block(params, Rng(20).normal((5, 12)), [0, 1, 2, 3, 0])


def test_expert_block_gradients_match_finite_differences():
    params = _layer(d_h=10, d_r=3, levels=2, seed=23)
    rng = Rng(24)
    _randomize(params, rng, std=0.3)
    x, row_levels = _tokens(d_h=10, seed=25)
    weights = rng.normal(x.shape)

    def build():
        out = ex.expert_block_graph(params, ad.const(x), row_levels)
        return total(ad.mul(out, ad.const(weights)))

    report = ad.check_gradients(build, params.named_parameters(), n_probes=80, rng=Rng(26))
    assert report.max_relative_error <= 1e-4, report
