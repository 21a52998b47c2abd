"""Semantic knowledge database: textual scene descriptions with unit-norm
embeddings, exact top-k cosine retrieval, and a fixed binary file format.

Embeddings are L2-normalized at ingest and stored as float32, so cosine
similarity against a normalized query reduces to a dot product. The exact
score of a record is its float32 embedding widened to float64, dotted with the
unit query on its own, and clipped to [-1, 1]; results are sorted by score
descending, ties by ascending id.

The database is columnar and keeps one copy of each record: an int64 array
of ids, one contiguous (n, dim) float64 matrix of the embeddings widened from
float32 (the flat inner-product layout of FAISS, arXiv:1702.08734), and the
texts as UTF-8 bytes in one buffer, with an int64 (start, end) row per
record. After a load the buffer is the file's own bytes; `ingest` appends
each text's bytes to it. `get` and `records` build `SemanticRecord`s on
demand and decode a text only then; the float32 embedding they carry is the
widened row narrowed back, which is exact. `save` writes the ids, text
lengths and embeddings as whole columns, then each text's stored bytes.

`load` reads the file once. Its only per-record Python work is one step
from a record's offset to the next, by the record's text length. Every check
runs on whole columns: one gather of the ids, the bounds of the texts and
embeddings, an ASCII screen of the texts (one `np.maximum.reduceat`) and one
decode of those that hold a byte >= 0x80, the trailing bytes, and one gather
and widening of the embeddings, whose largest row norm shows a non-finite
value. A malformed file raises the message of its first fault in file order.

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
import os
import struct
from dataclasses import dataclass

import numpy as np

from .artifact import Reader, replace_file
from .errors import DomainError, FormatError, ShapeError

MAGIC = b"RSDB"
FORMAT_VERSION = 1
# An embedding or query whose norm is at least MIN_NORM has x.x clear of
# underflow, so ingest normalizes it to a float32 row whose norm is at most
# UNIT_ROW_NORM, and retrieval divides a query by its true norm.
MIN_NORM = 2.0**-500
UNIT_ROW_NORM = 1.0 + 2.0**-20
_HEAD = np.dtype([("id", "<i8"), ("length", "<u4")])  # the 12 bytes that open each record
_TEXT_LENGTH = struct.Struct("<I")  # the field 8 bytes into each record


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
        # Record i < _n is (_ids[i], _text[s:e] decoded for (s, e) = _spans[i],
        # _emb[i]); rows of _ids, _spans and _emb past _n are spare capacity
        # for ingest. _text holds UTF-8 bytes: after a load, the file's own
        # bytes, then each ingested text's bytes appended.
        self._n = 0
        self._ids = np.empty(0, dtype=np.int64)
        self._spans = np.empty((0, 2), dtype=np.int64)
        self._emb = np.empty((0, self.dim))
        self._text = bytearray()
        self._max_norm = UNIT_ROW_NORM  # bounds every stored row's L2 norm

    def __len__(self) -> int:
        return self._n

    @property
    def records(self) -> list[SemanticRecord]:
        """Every record in id order, built on demand."""
        n, text = self._n, self._text
        return [SemanticRecord(rec_id, text[s:e].decode("utf-8"), row) for rec_id, (s, e), row in
                zip(self._ids[:n].tolist(), self._spans[:n].tolist(), self._emb[:n].astype(np.float32))]

    def get(self, record_id: int) -> SemanticRecord:
        """The record with this id, found by bisection: ids strictly increase."""
        n = self._n
        if 0 <= record_id < 1 << 63:  # every stored id is in the int64 range
            i = int(self._ids[:n].searchsorted(record_id))
            if i < n and self._ids.item(i) == record_id:
                s, e = self._spans[i].tolist()
                return SemanticRecord(self._ids.item(i), self._text[s:e].decode("utf-8"),
                                      self._emb[i].astype(np.float32))
        raise KeyError(record_id)

    def ingest(self, text: str, embedding) -> int:
        """Normalize and append one description; returns the new record id."""
        if not text:
            raise DomainError("ingest: empty text")
        try:
            raw = text.encode("utf-8")
        except UnicodeEncodeError as e:
            raise DomainError(f"ingest: text holds a lone surrogate at character {e.start}") from e
        emb = np.asarray(embedding, dtype=np.float64)
        if emb.ndim != 1:
            emb = emb.reshape(-1)
        if emb.shape[0] != self.dim:
            raise ShapeError(f"ingest: embedding length {emb.shape[0]} != db dim {self.dim}")
        norm = math.sqrt(emb.dot(emb))  # what np.linalg.norm computes
        if not math.isfinite(norm):
            raise DomainError("ingest: embedding is non-finite or its norm overflows")
        if norm < MIN_NORM:
            raise DomainError(f"ingest: zero or near-zero embedding vector (norm {norm:.3g} < 2^-500)")
        n = self._n
        new_id = self._ids.item(n - 1) + 1 if n else 0
        if new_id >= 1 << 63:
            raise DomainError(f"ingest: id {new_id} exceeds the int64 range")
        if n == len(self._ids):  # full: double the capacity
            cap = max(16, 2 * n)
            self._ids, self._spans, self._emb = (
                np.concatenate([a[:n], np.empty((cap - n, *a.shape[1:]), a.dtype)])
                for a in (self._ids, self._spans, self._emb))
        self._emb[n] = (emb / norm).astype(np.float32)
        self._ids[n] = new_id
        self._spans[n, 0] = len(self._text)
        self._text += raw
        self._spans[n, 1] = len(self._text)
        self._n = n + 1
        return new_id

    def retrieve_top_k(self, query, k: int) -> list[RetrievalResult]:
        """Exact top-k by cosine similarity, sorted by score desc then id asc."""
        q = np.asarray(query, dtype=np.float64).reshape(-1)
        if q.shape[0] != self.dim:
            raise ShapeError(f"retrieve: query length {q.shape[0]} != db dim {self.dim}")
        qn = math.sqrt(q.dot(q))  # what np.linalg.norm computes
        if not math.isfinite(qn):
            raise DomainError("retrieve: query is non-finite or its norm overflows")
        if qn < MIN_NORM:  # ingest's rule: below it, q.q underflows and q / qn is wrong
            raise DomainError(f"retrieve: zero or near-zero query vector (norm {qn:.3g} < 2^-500)")
        if k < 0:
            raise DomainError(f"retrieve: k must be >= 0, got {k}")
        n = self._n
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
        n, width = self._n, 4 * self.dim
        spans = self._spans[:n]
        lens = spans[:, 1] - spans[:, 0]
        ends = 18 + np.cumsum(12 + lens + width)  # where each record ends in the file
        out = bytearray(int(ends[-1]) if n else 18)
        out[:18] = MAGIC + struct.pack("<HIQ", FORMAT_VERSION, self.dim, n)
        if n:
            # The ids, text lengths and embeddings go in as whole columns,
            # then each text's stored bytes.
            texts_at = ends - width - lens
            heads = np.empty(n, _HEAD)
            heads["id"], heads["length"] = self._ids[:n], lens
            u8 = np.frombuffer(out, np.uint8)
            _windows(u8, 12)[texts_at - 12] = heads.view(np.uint8).reshape(n, 12)
            _windows(u8, width)[ends - width] = self._emb[:n].astype("<f4").view(np.uint8).reshape(n, width)
            text = self._text
            for at, s, e in zip(texts_at.tolist(), spans[:, 0].tolist(), spans[:, 1].tolist()):
                out[at : at + e - s] = text[s:e]
        replace_file(path, out)

    @staticmethod
    def load(path) -> "SemanticDatabase":
        with open(path, "rb", buffering=0) as fh:  # read once, into the buffer the database keeps
            data = bytearray(os.fstat(fh.fileno()).st_size)
            data[fh.readinto(data) :] = fh.readall()  # a short read, a pipe, or a file that grew
        reader = Reader(data)
        reader.header(MAGIC, FORMAT_VERSION)
        dim = reader.u32("dim")
        if dim <= 0:
            raise FormatError(f"non-positive dim {dim} at byte 6")
        count = reader.u64("count")
        reader.need(count * (12 + 4 * dim), f"{count} records of dim {dim}")
        db = SemanticDatabase(dim)
        # The one per-record step: from a record's offset to the next one's,
        # past its id, text length, text and embedding, up to the first
        # record whose id and text length do not fit.
        size, emb_len, unpack = len(data), 4 * dim, _TEXT_LENGTH.unpack_from
        step, last, offsets, off = 12 + emb_len, size - 12, [], reader.offset
        push = offsets.append
        for _ in range(count):
            if off > last:
                break
            push(off)
            off += step + unpack(data, off + 8)[0]
        # Every other check runs on whole columns. A fault is (record, rank
        # of its field in file order, message), and the first one raises, as
        # if the fields were read one at a time.
        m, faults = len(offsets), []
        at = np.fromiter(offsets, np.int64, m)
        spans = np.empty((m, 2), dtype=np.int64)
        spans[:, 0] = at + 12
        spans[:, 1] = np.append(at[1:], off) - emb_len  # a text ends where its embedding starts
        if off > size:  # only the last stepped record can run past the end
            s, e = spans[m - 1].tolist()
            faults.append((m - 1, 3, f"truncated payload reading record {m - 1} text at byte {s}") if e > size
                          else (m - 1, 5, f"truncated payload reading record {m - 1} embedding at byte {e}"))
        elif m < count and off + 8 > size:
            faults.append((m, 0, f"truncated payload reading record {m} id at byte {off}"))
        elif m < count:  # its id is read, and checked, before its text length
            faults.append((m, 2, f"truncated payload reading record {m} text length at byte {off + 8}"))
            at = np.append(at, off)
        u8 = np.frombuffer(data, np.uint8)
        ids = _windows(u8, 8)[at].view("<u8").ravel()
        later = np.flatnonzero(ids[1:] <= ids[:-1])
        if later.size:
            i = int(later[0]) + 1
            faults.append((i, 1, f"record ids not strictly increasing at byte {at[i]}"))
        if m:
            # Each text's largest byte; an ASCII text, all below 0x80, needs
            # no decoding. The last reduction runs to the end of the file,
            # and an empty text reads the byte at its end: neither hides one.
            # The other texts are decoded in one call, joined by an ASCII
            # byte, which no UTF-8 sequence spans: the first fault in the
            # join is the first text's first fault.
            top = np.maximum.reduceat(u8, np.minimum(spans.ravel()[:-1], size - 1))[::2]
            wide = np.flatnonzero(top >= 0x80).tolist()
            bounds = spans[wide].tolist()
            try:
                b"\n".join([data[s:e] for s, e in bounds]).decode("utf-8")
            except UnicodeDecodeError as err:
                pos = err.start
                for i, (s, e) in zip(wide, bounds):
                    if pos < e - s:
                        faults.append((i, 4, f"record {i}: invalid UTF-8 in text at byte {s + pos}"))
                        break
                    pos -= e - s + 1
        if faults:
            raise FormatError(min(faults)[2])
        if count and ids[-1] >= 1 << 63:  # ids increase, so only the last can leave the int64 range
            raise FormatError(f"record {count - 1}: id {ids[-1]} exceeds the int64 range")
        reader.offset = off
        reader.end()
        if not count:
            return db
        rows = _windows(u8, emb_len)[spans[:, 1]].view("<f4")
        with np.errstate(invalid="ignore"):  # widening a signalling NaN, which is reported below
            emb = rows.astype(np.float64)
        # sqrt is monotone and correctly rounded, so this is the largest of
        # np.linalg.norm(emb, axis=1), bit for bit; a NaN or an infinity
        # anywhere makes it non-finite.
        max_norm = math.sqrt(np.add.reduce(emb * emb, axis=1).max())
        if not math.isfinite(max_norm):
            i, j = divmod(int(np.argmin(np.isfinite(rows))), dim)
            raise FormatError(f"non-finite value in record {i} embedding at byte {spans[i, 1] + 4 * j}")
        db._n, db._ids, db._spans, db._emb, db._text = count, ids.view(np.int64), spans, emb, data
        db._max_norm = max(UNIT_ROW_NORM, max_norm)
        return db


def _windows(u8: np.ndarray, width: int) -> np.ndarray:
    """A view whose row i is the `width` bytes of `u8` that start at byte i:
    indexed by the offsets of a field, it gathers or scatters that field of
    every record at once."""
    return np.lib.stride_tricks.sliding_window_view(u8, width, writeable=True)


def iter_jsonl(path, required=()):
    """Yield (line_number, object) pairs; a line that is not UTF-8 JSON
    holding an object with every field in `required` raises FormatError."""
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
            except RecursionError:
                raise FormatError(f"line {lineno}: invalid JSON (nested too deeply)") from None
            if not isinstance(obj, dict):
                raise FormatError(f"line {lineno}: expected a JSON object, got {type(obj).__name__}")
            for field in required:
                if field not in obj:
                    raise FormatError(f"line {lineno}: missing field {field!r}")
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
