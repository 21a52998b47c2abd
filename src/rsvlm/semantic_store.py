"""Semantic knowledge database: textual scene descriptions with unit-norm
embeddings, exact top-k cosine retrieval, and a fixed binary file format.

Embeddings are L2-normalized at ingest and stored as float32, so cosine
similarity against a normalized query reduces to a dot product. The exact
score of a record is its float32 embedding widened to float64, dotted with the
unit query on its own, and clipped to [-1, 1]; results are sorted by score
descending, ties by ascending id.

The database is columnar and keeps one copy of each record: an int64 array
of ids, one contiguous (n, dim) float64 matrix of the embeddings widened from
float32 (the flat inner-product layout of FAISS, arXiv:1702.08734), and a
list of texts. `get` and `records` build `SemanticRecord`s on demand; the
float32 embedding they carry is the widened row narrowed back, which is exact.
`load` finds every record's fields in one pass over the file's bytes and
gathers the embeddings with one numpy index.

Retrieval is exact without scoring every record that way. It scores a query
against the matrix with one matrix-vector product. Those scores may differ
from the per-row ones in the last bits, by at most a margin that follows from
the dot-product rounding bound (see `retrieve_top_k`); only the rows within
that margin of the k-th best are rescored exactly, so the result is identical
to a full sort of the exact scores.

File format (all little-endian)::

    magic "RSDB" | version u16 | dim u32 | count u64 |
    per record: id u64 | text byte-length u32 | UTF-8 bytes | dim * float32
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifact import Reader
from .errors import DomainError, FormatError, ShapeError

MAGIC = b"RSDB"
FORMAT_VERSION = 1
# An embedding whose norm is at least MIN_NORM has x.x clear of underflow, so
# ingest normalizes it to a float32 row whose norm is at most UNIT_ROW_NORM.
MIN_NORM = 2.0**-500
UNIT_ROW_NORM = 1.0 + 2.0**-20
_ID_AND_LENGTH = struct.Struct("<QI")  # the fields that open each record


@dataclass
class SemanticRecord:
    id: int
    text: str
    embedding: np.ndarray  # float32, unit L2 norm


@dataclass
class RetrievalResult:
    id: int
    score: float


class SemanticDatabase:
    def __init__(self, dim: int):
        if dim <= 0:
            raise ShapeError(f"database dim must be positive, got {dim}")
        self.dim = int(dim)
        # Record i is (_ids[i], _texts[i], _emb[i]); rows of _ids and _emb
        # past len(_texts) are spare capacity for ingest.
        self._ids = np.empty(0, dtype=np.int64)
        self._emb = np.empty((0, self.dim))
        self._texts: list[str] = []
        self._max_norm = UNIT_ROW_NORM  # bounds every stored row's L2 norm

    def __len__(self) -> int:
        return len(self._texts)

    @property
    def records(self) -> list[SemanticRecord]:
        """Every record in id order, built on demand."""
        n = len(self._texts)
        return [SemanticRecord(*rec) for rec in
                zip(self._ids[:n].tolist(), self._texts, self._emb[:n].astype(np.float32))]

    def get(self, record_id: int) -> SemanticRecord:
        """The record with this id, found by bisection: ids strictly increase."""
        n = len(self._texts)
        if 0 <= record_id < 1 << 63:  # every stored id is in the int64 range
            i = int(self._ids[:n].searchsorted(record_id))
            if i < n and self._ids.item(i) == record_id:
                return SemanticRecord(self._ids.item(i), self._texts[i], self._emb[i].astype(np.float32))
        raise KeyError(record_id)

    def ingest(self, text: str, embedding) -> int:
        """Normalize and append one description; returns the new record id."""
        if not text:
            raise DomainError("ingest: empty text")
        try:
            text.encode("utf-8")  # so that save can write every stored text
        except UnicodeEncodeError as e:
            raise DomainError(f"ingest: text holds a lone surrogate at character {e.start}") from e
        emb = np.asarray(embedding, dtype=np.float64).reshape(-1)
        if emb.shape[0] != self.dim:
            raise ShapeError(f"ingest: embedding length {emb.shape[0]} != db dim {self.dim}")
        norm = math.sqrt(emb.dot(emb))  # what np.linalg.norm computes
        if not math.isfinite(norm):
            raise DomainError("ingest: embedding is non-finite or its norm overflows")
        if norm < MIN_NORM:
            raise DomainError(f"ingest: zero or near-zero embedding vector (norm {norm:.3g} < 2^-500)")
        n = len(self._texts)
        new_id = int(self._ids[n - 1]) + 1 if n else 0
        if new_id >= 1 << 63:
            raise DomainError(f"ingest: id {new_id} exceeds the int64 range")
        if n == len(self._ids):  # full: double the capacity
            cap = max(16, 2 * n)
            self._emb = np.concatenate([self._emb[:n], np.empty((cap - n, self.dim))])
            self._ids = np.concatenate([self._ids[:n], np.empty(cap - n, dtype=np.int64)])
        self._emb[n] = (emb / norm).astype(np.float32)
        self._ids[n] = new_id
        self._texts.append(text)
        return new_id

    def retrieve_top_k(self, query, k: int) -> list[RetrievalResult]:
        """Exact top-k by cosine similarity, sorted by score desc then id asc."""
        q = np.asarray(query, dtype=np.float64).reshape(-1)
        if q.shape[0] != self.dim:
            raise ShapeError(f"retrieve: query length {q.shape[0]} != db dim {self.dim}")
        qn = float(np.linalg.norm(q))
        if not math.isfinite(qn):
            raise DomainError("retrieve: query is non-finite or its norm overflows")
        if qn == 0.0:
            raise DomainError("retrieve: zero query vector")
        if k < 0:
            raise DomainError(f"retrieve: k must be >= 0, got {k}")
        n = len(self._texts)
        if n == 0 or k == 0:
            return []
        unit = q / qn
        emb = self._emb[:n]
        cand = np.arange(n)
        if k < n:
            # Any float64 dot product of finite d-vectors, in any summation
            # order, with or without FMA, is within g*|x|*|u| of the true x.u,
            # where g = d*2^-53 / (1 - d*2^-53). So a row's matvec score and
            # its per-row score are each within e = g*M*|u| of its true score,
            # where M = _max_norm bounds every stored row norm; clipping to
            # [-1, 1] widens no gap. Each of the k rows at or above the k-th
            # clipped matvec score `kth` then scores >= kth - 2e, and a row
            # below kth - 4e scores < kth - 2e: k rows precede it, whatever
            # the ids. The margin is 4*g*M plus 2^-50*M, which covers |u| ~ 1,
            # the rounding of M and of kth - margin, and underflow (at most
            # d*2^-1074 per dot, while M >= 1).
            approx = np.clip(emb @ unit, -1.0, 1.0)
            kth = np.partition(approx, n - k)[n - k]
            g = self.dim * 2.0**-53 / (1.0 - self.dim * 2.0**-53)
            cand = np.flatnonzero(approx >= kth - (4.0 * g + 2.0**-50) * self._max_norm)
        scores = np.array([np.clip(emb[i] @ unit, -1.0, 1.0) for i in cand])
        ids = self._ids[cand]
        order = np.lexsort((ids, -scores))[:k]
        return [RetrievalResult(int(ids[i]), float(scores[i])) for i in order]

    def save(self, path) -> None:
        n = len(self._texts)
        parts = [MAGIC, struct.pack("<HIQ", FORMAT_VERSION, self.dim, n)]
        for rec_id, text, row in zip(self._ids[:n].tolist(), self._texts, self._emb[:n].astype("<f4")):
            text_bytes = text.encode("utf-8")
            parts += (_ID_AND_LENGTH.pack(rec_id, len(text_bytes)), text_bytes, row.tobytes())
        Path(path).write_bytes(b"".join(parts))

    @staticmethod
    def load(path) -> "SemanticDatabase":
        data = Path(path).read_bytes()
        reader = Reader(data)
        reader.header(MAGIC, FORMAT_VERSION)
        dim = reader.u32("dim")
        if dim <= 0:
            raise FormatError(f"non-positive dim {dim} at byte 6")
        count = reader.u64("count")
        reader.need(count * (12 + 4 * dim), f"{count} records of dim {dim}")
        db = SemanticDatabase(dim)
        # One pass finds each record's fields with plain integer bounds
        # checks; a field's label is built only on the branch that raises.
        size, emb_len, unpack = len(data), 4 * dim, _ID_AND_LENGTH.unpack_from
        ids, texts, offsets = [], [], []
        prev_id, off = -1, reader.offset
        try:
            for i in range(count):
                text_at = off + 12
                if text_at <= size:
                    rec_id, text_len = unpack(data, off)
                elif off + 8 <= size:  # only the text length is cut short, and the id is checked first
                    rec_id, text_len = int.from_bytes(data[off : off + 8], "little"), 0
                else:
                    raise FormatError(f"truncated payload reading record {i} id at byte {off}")
                if rec_id <= prev_id:
                    raise FormatError(f"record ids not strictly increasing at byte {off}")
                if text_at > size:
                    raise FormatError(f"truncated payload reading record {i} text length at byte {off + 8}")
                prev_id, emb_at = rec_id, text_at + text_len
                if emb_at > size:
                    raise FormatError(f"truncated payload reading record {i} text at byte {text_at}")
                texts.append(data[text_at:emb_at].decode("utf-8"))
                off = emb_at + emb_len
                if off > size:
                    raise FormatError(f"truncated payload reading record {i} embedding at byte {emb_at}")
                ids.append(rec_id)
                offsets.append(emb_at)
        except UnicodeDecodeError as e:
            raise FormatError(f"record {i}: invalid UTF-8 in text at byte {text_at + e.start}") from e
        if prev_id >= 1 << 63:  # ids increase, so only the last can leave the int64 range
            raise FormatError(f"record {count - 1}: id {prev_id} exceeds the int64 range")
        reader.offset = off
        reader.end()
        if not count:
            return db
        # One gather of every embedding's bytes: row i of the window view is
        # the 4*dim bytes that start at byte i of the file.
        windows = np.lib.stride_tricks.sliding_window_view(np.frombuffer(data, np.uint8), 4 * dim)
        rows = windows[np.array(offsets)].view("<f4")
        finite = np.isfinite(rows)
        if not finite.all():
            i, j = divmod(int(np.argmin(finite)), dim)
            raise FormatError(f"non-finite value in record {i} embedding at byte {offsets[i] + 4 * j}")
        db._ids = np.array(ids, dtype=np.int64)
        db._emb = rows.astype(np.float64)
        db._texts = texts
        db._max_norm = max(UNIT_ROW_NORM, float(np.linalg.norm(db._emb, axis=1).max()))
        return db


def iter_jsonl(path):
    """Yield (line_number, object) pairs; a line that is not UTF-8 JSON
    holding an object raises FormatError."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                obj = json.loads(line)
            except UnicodeDecodeError as e:
                raise FormatError(f"line {lineno}: invalid UTF-8 at column {e.start + 1}") from e
            except json.JSONDecodeError as e:
                raise FormatError(f"line {lineno}: invalid JSON ({e.msg})") from e
            if not isinstance(obj, dict):
                raise FormatError(f"line {lineno}: expected a JSON object, got {type(obj).__name__}")
            yield lineno, obj


def json_numbers(value, what: str) -> np.ndarray:
    """`value`, a JSON number or nested list of numbers, as a float64 array;
    anything else, such as a string, a bool or a ragged nesting, raises
    FormatError naming `what`."""
    try:
        arr = np.asarray(value)
    except ValueError:  # a ragged nesting
        arr = None
    if arr is None or arr.dtype.kind not in "iuf":
        raise FormatError(f"{what} must be an array of numbers")
    return arr.astype(np.float64)


def json_text(value, what: str) -> str:
    """`value` if it is a string that UTF-8 can encode; otherwise FormatError
    naming `what`. JSON's \\u escapes can spell a lone surrogate, which no
    UTF-8 text holds."""
    if not isinstance(value, str):
        raise FormatError(f"{what} must be a string")
    try:
        value.encode("utf-8")
    except UnicodeEncodeError as e:
        raise FormatError(f"{what} holds a lone surrogate at character {e.start}") from e
    return value
