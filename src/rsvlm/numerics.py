"""PRNG, the relative error and report of the gradient check, and the
row-index helper of packed batches. The independent oracles the tests
compare the package against (softmax, attention, central differences) are
in `tests/oracles.py`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# splitmix64 constants
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1


def ranges(starts, lens) -> np.ndarray:
    """The concatenation of arange(s, s + n) over paired starts and lengths:
    the row indices of segments of a stacked matrix, in segment order."""
    return np.concatenate([np.arange(s, s + n) for s, n in zip(starts, lens)])


# Relative error floor: coordinates whose analytic and numeric gradients are
# both below this magnitude are compared absolutely at floor * tolerance,
# which keeps finite-difference noise on structurally-zero gradients from
# registering as disagreement.
REL_ERROR_FLOOR = 1e-2


@dataclass
class GradReport:
    """Worst-case disagreement between analytic and numeric gradients."""

    max_relative_error: float
    worst_parameter_index: tuple
    analytic: float
    numeric: float


def relative_error(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), REL_ERROR_FLOOR)


def _mix64(z: int) -> int:
    """splitmix64 output function on one 64-bit word (pure-int reference)."""
    z &= _MASK64
    z = (z ^ (z >> 30)) * _MIX1 & _MASK64
    z = (z ^ (z >> 27)) * _MIX2 & _MASK64
    return z ^ (z >> 31)


class Rng:
    """Counter-based splitmix64 generator; same seed gives a bit-identical
    stream on every platform.

    Draw i (1-based) is produced from the word ``s_i = seed + i * 0x9E3779B97F4A7C15
    (mod 2^64)`` passed through the splitmix64 mix::

        z = s_i
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9  (mod 2^64)
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB  (mod 2^64)
        output = z ^ (z >> 31)

    Uniform doubles take the top 53 bits (exact power-of-two scaling); normals
    use the Box-Muller transform on consecutive uniform pairs.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._count = 0

    def u64(self, n: int) -> np.ndarray:
        idx = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        z = (np.uint64(self.seed) + np.uint64(_GOLDEN) * idx)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))

    def uniform(self, n: int) -> np.ndarray:
        """n doubles in [0, 1)."""
        return (self.u64(n) >> np.uint64(11)).astype(np.float64) * 2.0 ** -53

    def _uniform_open(self, n: int) -> np.ndarray:
        """n doubles in (0, 1], safe to pass through log."""
        return ((self.u64(n) >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0 ** -53

    def normal(self, shape, mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        if np.isscalar(shape):
            shape = (int(shape),)
        size = int(np.prod(shape)) if len(shape) else 1
        m = (size + 1) // 2
        u1 = self._uniform_open(m)
        u2 = self.uniform(m)
        r = np.sqrt(-2.0 * np.log(u1))
        z = np.concatenate([r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)])[:size]
        return (mean + std * z).reshape(shape)

    def zeros(self, shape) -> np.ndarray:
        """An all-zero block; draws nothing, so the stream is unchanged."""
        return np.zeros(shape)

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates shuffle of range(n) driven by the u64 stream."""
        draws = self.u64(max(n - 1, 0))
        order = np.arange(n)
        for i in range(n - 1, 0, -1):
            j = int(draws[n - 1 - i] % np.uint64(i + 1))
            order[i], order[j] = order[j], order[i]
        return order

    def spawn(self, tag: int) -> "Rng":
        """Independent child stream for component `tag` of the same master seed."""
        return Rng(_mix64(self.seed ^ _mix64((_GOLDEN * (int(tag) + 1)) & _MASK64)))


class ShapeRng:
    """Stands in for Rng where only the shapes of the draws matter: each
    draw is a read-only broadcast of one number, so an initializer run with
    it allocates no parameter block."""

    def spawn(self, tag: int) -> "ShapeRng":
        return self

    def normal(self, shape, mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        return np.broadcast_to(np.float64(mean), shape)

    def zeros(self, shape) -> np.ndarray:
        return np.broadcast_to(np.float64(0.0), shape)
