import math

import pytest

from rsvlm import metrics as mt
from rsvlm.errors import DomainError, ShapeError
from rsvlm.metrics import Box, CaptionPair


def test_accuracy_basic():
    assert mt.accuracy(["a", "b"], ["a", "b"]) == 1.0
    assert mt.accuracy(["a", "b"], ["x", "y"]) == 0.0
    assert mt.accuracy(["a", "b", "c", "d"], ["a", "b", "c", "z"]) == 0.75


def test_accuracy_casefold_and_trim():
    assert mt.accuracy(["  Urban "], ["urban"]) == 1.0


def test_accuracy_validations():
    with pytest.raises(ShapeError):
        mt.accuracy(["a"], ["a", "b"])
    with pytest.raises(DomainError):
        mt.accuracy([], [])


def test_bleu1_identical():
    pair = CaptionPair("a small lake".split(), ["a small lake".split()])
    assert mt.bleu1(pair) == 1.0


def test_bleu1_clipped_precision():
    pair = CaptionPair("a a a a".split(), ["a b c d".split()])
    assert mt.bleu1(pair) == pytest.approx(0.25)


def test_bleu1_disjoint_and_empty():
    assert mt.bleu1(CaptionPair("x y".split(), ["p q".split()])) == 0.0
    assert mt.bleu1(CaptionPair([], ["p q".split()])) == 0.0


def test_bleu1_brevity_penalty():
    # candidate length 2, reference length 4: BP = exp(1 - 4/2)
    pair = CaptionPair("a b".split(), ["a b c d".split()])
    assert mt.bleu1(pair) == pytest.approx(1.0 * math.exp(1.0 - 2.0))


def test_rouge1_identical_and_half():
    assert mt.rouge1(CaptionPair("a b".split(), ["a b".split()])) == 1.0
    assert mt.rouge1(CaptionPair("a b".split(), ["a c".split()])) == pytest.approx(0.5)
    assert mt.rouge1(CaptionPair("x".split(), ["y".split()])) == 0.0


def test_rouge1_best_reference():
    pair = CaptionPair("a b c".split(), ["z z z".split(), "a b q".split()])
    # best reference: matches 2, P = R = 2/3
    assert mt.rouge1(pair) == pytest.approx(2.0 / 3.0)


def test_meteor_identical_formula():
    for n in (1, 3, 6):
        cand = [f"w{i}" for i in range(n)]
        score = mt.meteor_simplified(CaptionPair(cand, [list(cand)]))
        assert score == pytest.approx(1.0 * (1.0 - 0.5 * (1.0 / n) ** 3))


def test_meteor_zero_matches():
    assert mt.meteor_simplified(CaptionPair("a b".split(), ["x y".split()])) == 0.0


def test_meteor_hand_formula_case():
    pair = CaptionPair("the cat sat".split(), ["the cat sat down".split()])
    p, r, chunks, m = 1.0, 3.0 / 4.0, 1, 3
    f_mean = 10.0 * p * r / (r + 9.0 * p)
    expected = f_mean * (1.0 - 0.5 * (chunks / m) ** 3)
    assert mt.meteor_simplified(pair) == pytest.approx(expected, abs=1e-12)


def test_meteor_fragmentation_counts_chunks():
    # two aligned chunks: "a b" and "d"
    pair = CaptionPair("a b d".split(), ["a b c d".split()])
    p, r, m = 1.0, 3.0 / 4.0, 3
    f_mean = 10.0 * p * r / (r + 9.0 * p)
    expected = f_mean * (1.0 - 0.5 * (2 / m) ** 3)
    assert mt.meteor_simplified(pair) == pytest.approx(expected, abs=1e-12)


def test_caption_metrics_reference_permutation_invariant():
    refs = [["a", "b"], ["c", "d", "e"], ["a", "x"]]
    cand = ["a", "c", "x"]
    for metric in (mt.bleu1, mt.rouge1, mt.meteor_simplified):
        base = metric(CaptionPair(cand, refs))
        assert metric(CaptionPair(cand, refs[::-1])) == pytest.approx(base)


def test_caption_metrics_bounded():
    cases = [
        ("a b c", ["a c b"]),
        ("the quick fox", ["the quick brown fox", "a fox"]),
        ("x", ["x x x x"]),
    ]
    for cand, refs in cases:
        pair = CaptionPair(cand.split(), [r.split() for r in refs])
        for metric in (mt.bleu1, mt.rouge1, mt.meteor_simplified):
            assert 0.0 <= metric(pair) <= 1.0


def test_caption_pair_requires_reference():
    with pytest.raises(DomainError):
        CaptionPair(["a"], [])


def test_iou_identical_disjoint_half():
    a = Box(0.0, 0.0, 1.0, 1.0)
    assert mt.iou(a, a) == 1.0
    assert mt.iou(a, Box(2.0, 2.0, 3.0, 3.0)) == 0.0
    assert mt.iou(a, Box(0.5, 0.0, 1.0, 1.0)) == pytest.approx(0.5)


def test_iou_symmetry_and_scale_invariance():
    a = Box(0.1, 0.2, 0.5, 0.9)
    b = Box(0.3, 0.1, 0.8, 0.6)
    assert mt.iou(a, b) == pytest.approx(mt.iou(b, a))
    s = 0.37
    a2 = Box(a.x_min * s, a.y_min * s, a.x_max * s, a.y_max * s)
    b2 = Box(b.x_min * s, b.y_min * s, b.x_max * s, b.y_max * s)
    assert mt.iou(a2, b2) == pytest.approx(mt.iou(a, b))


def test_iou_degenerate_boxes():
    point = Box(0.5, 0.5, 0.5, 0.5)
    assert mt.iou(point, point) == 0.0


def test_box_validation():
    with pytest.raises(DomainError):
        Box(0.5, 0.0, 0.4, 1.0)


def test_precision_at_iou():
    gt = [Box(0.0, 0.0, 1.0, 1.0)] * 5
    preds = [
        Box(0.0, 0.0, 1.0, 1.0),       # iou 1.0
        Box(0.0, 0.0, 1.0, 0.51),      # iou 0.51
        Box(0.0, 0.0, 1.0, 0.3),       # iou 0.3
        Box(2.0, 2.0, 3.0, 3.0),       # disjoint
        Box(0.6, 0.6, 1.6, 1.6),       # small overlap
    ]
    assert mt.precision_at_iou(preds, gt) == pytest.approx(0.4)
    assert mt.precision_at_iou(gt, gt) == 1.0
    # a prediction with no parsed box is a miss
    assert mt.precision_at_iou([None] + preds[1:], gt) == pytest.approx(0.2)
    assert mt.precision_at_iou([None] * 5, gt) == 0.0
    with pytest.raises(ShapeError):
        mt.precision_at_iou(preds[:2], gt)


def test_parse_box():
    box = mt.parse_box("the object is at [0.1, 0.2, 0.5, 0.9] in the image")
    assert (box.x_min, box.y_min, box.x_max, box.y_max) == (0.1, 0.2, 0.5, 0.9)
    assert mt.parse_box("no boxes here") is None
    # malformed group (x_min > x_max) is skipped, next one taken
    box = mt.parse_box("[0.9, 0.0, 0.1, 1.0] then [0.0, 0.0, 0.4, 0.4]")
    assert box.x_max == 0.4
