"""Evaluation kernels: exact-match accuracy, BLEU-1, ROUGE-1, a simplified
exact-match METEOR, box IoU, and precision at an IoU threshold.

METEOR here runs the standard exact-match formula only (no stemming or
synonym stages): unigrams are aligned by occurrence order (the k-th candidate
occurrence of a word pairs with the k-th reference occurrence), F-mean
weights recall 9:1, and the fragmentation penalty is 0.5 * (chunks/matches)^3.
It is named meteor_simplified everywhere to keep that distinction visible.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass

from .errors import DomainError, ShapeError


@dataclass
class Box:
    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        if self.x_min > self.x_max or self.y_min > self.y_max:
            raise DomainError(
                f"invalid box: ({self.x_min}, {self.y_min}, {self.x_max}, {self.y_max})"
            )

    @property
    def area(self) -> float:
        return (self.x_max - self.x_min) * (self.y_max - self.y_min)


@dataclass
class CaptionPair:
    candidate: list[str]
    references: list[list[str]]

    def __post_init__(self):
        if not self.references:
            raise DomainError("caption pair needs at least one reference")


def normalize_answer(text: str) -> str:
    return text.strip().casefold()


def accuracy(predictions, labels) -> float:
    """Exact-match fraction after case-folding and whitespace trimming."""
    if len(predictions) != len(labels):
        raise ShapeError(f"accuracy: {len(predictions)} predictions vs {len(labels)} labels")
    if not predictions:
        raise DomainError("accuracy: empty inputs")
    hits = sum(normalize_answer(p) == normalize_answer(l) for p, l in zip(predictions, labels))
    return hits / len(predictions)


def _clipped_matches(candidate, reference) -> int:
    cand = Counter(candidate)
    ref = Counter(reference)
    return sum(min(n, ref[w]) for w, n in cand.items())


def bleu1(pair: CaptionPair) -> float:
    """Clipped unigram precision against all references times the brevity
    penalty computed from the closest-length reference. Empty candidate
    scores 0 by convention."""
    cand = pair.candidate
    if not cand:
        return 0.0
    max_ref = Counter()
    for ref in pair.references:
        for w, n in Counter(ref).items():
            max_ref[w] = max(max_ref[w], n)
    matches = sum(min(n, max_ref[w]) for w, n in Counter(cand).items())
    precision = matches / len(cand)
    c = len(cand)
    r = min((len(ref) for ref in pair.references), key=lambda rl: (abs(rl - c), rl))
    bp = 1.0 if c > r else math.exp(1.0 - r / c)
    return bp * precision


def rouge1(pair: CaptionPair) -> float:
    """Best unigram F1 over the references (clipped precision and recall)."""
    cand = pair.candidate
    if not cand:
        return 0.0
    best = 0.0
    for ref in pair.references:
        if not ref:
            continue
        m = _clipped_matches(cand, ref)
        if m == 0:
            continue
        p = m / len(cand)
        r = m / len(ref)
        best = max(best, 2.0 * p * r / (p + r))
    return best


def _align_ordered(candidate, reference) -> list[tuple[int, int]]:
    """Pair the k-th occurrence of each shared word in candidate order."""
    ref_positions: dict[str, list[int]] = {}
    for j, w in enumerate(reference):
        ref_positions.setdefault(w, []).append(j)
    used = Counter()
    pairs = []
    for i, w in enumerate(candidate):
        slots = ref_positions.get(w, [])
        if used[w] < len(slots):
            pairs.append((i, slots[used[w]]))
            used[w] += 1
    return pairs


def _chunks(pairs) -> int:
    count = 0
    prev = None
    for i, j in pairs:
        if prev is None or i != prev[0] + 1 or j != prev[1] + 1:
            count += 1
        prev = (i, j)
    return count


def meteor_simplified(pair: CaptionPair) -> float:
    """Exact-match METEOR: F-mean = 10PR / (R + 9P), fragmentation penalty
    0.5 * (chunks/matches)^3, best score over references."""
    cand = pair.candidate
    if not cand:
        return 0.0
    best = 0.0
    for ref in pair.references:
        if not ref:
            continue
        aligned = _align_ordered(cand, ref)
        m = len(aligned)
        if m == 0:
            continue
        p = m / len(cand)
        r = m / len(ref)
        f_mean = 10.0 * p * r / (r + 9.0 * p)
        penalty = 0.5 * (_chunks(aligned) / m) ** 3
        best = max(best, f_mean * (1.0 - penalty))
    return best


def iou(a: Box, b: Box) -> float:
    """Intersection over union; 0 for disjoint or jointly degenerate boxes."""
    ix = max(0.0, min(a.x_max, b.x_max) - max(a.x_min, b.x_min))
    iy = max(0.0, min(a.y_max, b.y_max) - max(a.y_min, b.y_min))
    inter = ix * iy
    union = a.area + b.area - inter
    if union == 0.0:
        return 0.0
    return inter / union


def precision_at_iou(preds, gts, threshold: float = 0.5) -> float:
    """Fraction of prediction/ground-truth pairs with IoU >= threshold; a
    None prediction (no box parsed) is a miss."""
    if len(preds) != len(gts):
        raise ShapeError(f"precision_at_iou: {len(preds)} predictions vs {len(gts)} boxes")
    if not preds:
        raise DomainError("precision_at_iou: empty inputs")
    hits = sum(p is not None and iou(p, g) >= threshold for p, g in zip(preds, gts))
    return hits / len(preds)


_BOX_RE = re.compile(
    r"\[\s*([-+]?\d*\.?\d+(?:[eE][-+]?\d+)?)\s*,\s*([-+]?\d*\.?\d+(?:[eE][-+]?\d+)?)"
    r"\s*,\s*([-+]?\d*\.?\d+(?:[eE][-+]?\d+)?)\s*,\s*([-+]?\d*\.?\d+(?:[eE][-+]?\d+)?)\s*\]"
)


def parse_box(text: str) -> Box | None:
    """First well-formed `[x_min, y_min, x_max, y_max]` group in a string."""
    for match in _BOX_RE.finditer(text):
        vals = [float(v) for v in match.groups()]
        try:
            return Box(*vals)
        except DomainError:
            continue
    return None


def tokenize_caption(text: str) -> list[str]:
    return text.casefold().split()
