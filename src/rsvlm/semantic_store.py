"""Semantic knowledge database: textual scene descriptions with unit-norm
embeddings, exact top-k cosine retrieval, and a fixed binary file format.

Retrieval is an exact flat scan (no approximate index). Embeddings are
L2-normalized at ingest and stored as float32, so cosine similarity against a
normalized query reduces to a dot product. Ties are broken by ascending id.

File format (all little-endian)::

    magic "RSDB" | version u16 | dim u32 | count u64 |
    per record: id u64 | text byte-length u32 | UTF-8 bytes | dim * float32
"""

from __future__ import annotations

import json
import struct
from bisect import bisect_left
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path

import numpy as np

from .artifact import Reader
from .errors import DomainError, FormatError, ShapeError

MAGIC = b"RSDB"
FORMAT_VERSION = 1


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
        self.records: list[SemanticRecord] = []

    def __len__(self) -> int:
        return len(self.records)

    def get(self, record_id: int) -> SemanticRecord:
        """The record with this id, found by bisection: ids strictly increase."""
        i = bisect_left(self.records, record_id, key=attrgetter("id"))
        if i < len(self.records) and self.records[i].id == record_id:
            return self.records[i]
        raise KeyError(record_id)

    def ingest(self, text: str, embedding) -> int:
        """Normalize and append one description; returns the new record id."""
        if not text:
            raise DomainError("ingest: empty text")
        emb = np.asarray(embedding, dtype=np.float64).reshape(-1)
        if emb.shape[0] != self.dim:
            raise ShapeError(f"ingest: embedding length {emb.shape[0]} != db dim {self.dim}")
        norm = float(np.linalg.norm(emb))
        if norm == 0.0:
            raise DomainError("ingest: zero embedding vector")
        unit = (emb / norm).astype(np.float32)
        new_id = self.records[-1].id + 1 if self.records else 0
        self.records.append(SemanticRecord(new_id, text, unit))
        return new_id

    def retrieve_top_k(self, query, k: int) -> list[RetrievalResult]:
        """Exact top-k by cosine similarity, sorted by score desc then id asc."""
        q = np.asarray(query, dtype=np.float64).reshape(-1)
        if q.shape[0] != self.dim:
            raise ShapeError(f"retrieve: query length {q.shape[0]} != db dim {self.dim}")
        qn = float(np.linalg.norm(q))
        if qn == 0.0:
            raise DomainError("retrieve: zero query vector")
        if k < 0:
            raise DomainError(f"retrieve: k must be >= 0, got {k}")
        if not self.records or k == 0:
            return []
        # Score each record with an individual float64 dot product so the
        # exact values are reproducible by any independent scorer (a fused
        # matrix-vector product may round differently in the last ulp).
        unit = q / qn
        scores = np.array([
            np.clip(rec.embedding.astype(np.float64) @ unit, -1.0, 1.0)
            for rec in self.records
        ])
        ids = np.array([rec.id for rec in self.records], dtype=np.int64)
        order = np.lexsort((ids, -scores))[: min(k, len(self.records))]
        return [RetrievalResult(int(ids[i]), float(scores[i])) for i in order]

    def save(self, path) -> None:
        blob = bytearray()
        blob += MAGIC
        blob += struct.pack("<H", FORMAT_VERSION)
        blob += struct.pack("<I", self.dim)
        blob += struct.pack("<Q", len(self.records))
        for rec in self.records:
            text_bytes = rec.text.encode("utf-8")
            blob += struct.pack("<Q", rec.id)
            blob += struct.pack("<I", len(text_bytes))
            blob += text_bytes
            blob += rec.embedding.astype("<f4").tobytes()
        Path(path).write_bytes(bytes(blob))

    @staticmethod
    def load(path) -> "SemanticDatabase":
        reader = Reader(Path(path).read_bytes())
        reader.header(MAGIC, FORMAT_VERSION)
        dim = reader.u32("dim")
        if dim <= 0:
            raise FormatError(f"non-positive dim {dim} at byte 6")
        count = reader.u64("count")
        reader.need(count * (12 + 4 * dim), f"{count} records of dim {dim}")
        db = SemanticDatabase(dim)
        prev_id = -1
        # One handler around the whole loop keeps the per-record path as it was.
        try:
            for i in range(count):
                rec_id = reader.u64(f"record {i} id")
                if rec_id <= prev_id:
                    raise FormatError(f"record ids not strictly increasing at byte {reader.offset - 8}")
                prev_id = rec_id
                text_len = reader.u32(f"record {i} text length")
                text = reader.take(text_len, f"record {i} text").decode("utf-8")
                emb_bytes = reader.take(4 * dim, f"record {i} embedding")
                emb = np.frombuffer(emb_bytes, dtype="<f4").copy()
                db.records.append(SemanticRecord(rec_id, text, emb))
        except UnicodeDecodeError as e:
            start = reader.offset - text_len
            raise FormatError(f"record {i}: invalid UTF-8 in text at byte {start + e.start}") from e
        if prev_id >= 1 << 63:  # ids increase, so only the last can leave the int64 range
            raise FormatError(f"record {count - 1}: id {prev_id} exceeds the int64 range")
        reader.end()
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
