import itertools
import json
import re
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rsvlm import cli
from rsvlm.errors import DomainError, FormatError, ShapeError
from rsvlm.numerics import Rng
from rsvlm.semantic_store import UNIT_ROW_NORM, SemanticDatabase, iter_jsonl


# Each example of the retrieval fuzz test writes a new file: overwriting one
# file makes ext4 flush it on close, which costs far more than the example.
_EXAMPLE = itertools.count()


def _unit_rows(rng, n, dim):
    m = rng.normal((n, dim))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def _oracle_top_k(db, query, k):
    """Every record scored on its own and fully sorted by (-score, id)."""
    q = np.asarray(query, dtype=np.float64)
    unit = q / np.linalg.norm(q)
    scored = [(rec.id, float(np.clip(rec.embedding.astype(np.float64) @ unit, -1.0, 1.0)))
              for rec in db.records]
    return sorted(scored, key=lambda t: (-t[1], t[0]))[:k]


def _top_k(db, query, k):
    return [(r.id, r.score) for r in db.retrieve_top_k(query, k)]


def test_first_ingest_gets_id_zero():
    db = SemanticDatabase(2)
    assert db.ingest("a scene", [1.0, 0.0]) == 0


def test_ingest_normalizes():
    db = SemanticDatabase(2)
    db.ingest("three four", [3.0, 4.0])
    assert np.allclose(db.records[0].embedding, [0.6, 0.8], atol=1e-7)
    assert db.records[0].embedding.dtype == np.float32


def test_ids_are_sequential():
    db = SemanticDatabase(3)
    rng = Rng(0)
    ids = [db.ingest(f"text {i}", rng.normal((3,))) for i in range(100)]
    assert ids == list(range(100))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_ingest_validations():
    db = SemanticDatabase(2)
    with pytest.raises(ShapeError):
        db.ingest("bad", [1.0, 2.0, 3.0])
    with pytest.raises(DomainError):
        db.ingest("zero", [0.0, 0.0])
    with pytest.raises(DomainError):
        db.ingest("", [1.0, 0.0])
    for bad in ([np.inf, 0.0], [1.0, -np.inf], [np.nan, 1.0], [1e200, 1e200]):
        with pytest.raises(DomainError, match="non-finite"):
            db.ingest("bad", bad)
    assert len(db) == 0


def test_ingest_rejects_text_utf8_cannot_encode(tmp_path):
    db = SemanticDatabase(2)
    db.ingest("kept", [1.0, 0.0])
    with pytest.raises(DomainError, match="lone surrogate at character 1"):
        db.ingest("a\ud800b", [1.0, 0.0])
    assert len(db) == 1
    db.save(tmp_path / "db.rsdb")
    assert [r.text for r in SemanticDatabase.load(tmp_path / "db.rsdb").records] == ["kept"]


def test_ingest_rejects_near_zero_embedding():
    db = SemanticDatabase(2)
    db.ingest("smallest accepted", [2.0**-499, 0.0])
    assert db.records[0].embedding.tolist() == [1.0, 0.0]
    for tiny in ([2.0**-501, 0.0], [1e-200, 1e-210]):  # x.x underflows, so norm(x) would be wrong
        with pytest.raises(DomainError, match="near-zero"):
            db.ingest("too small", tiny)
    assert len(db) == 1


@given(values=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=8), exp=st.integers(-480, 500))
def test_ingested_rows_keep_the_norm_bound_retrieval_assumes(values, exp):
    assume(max(map(abs, values)) >= 2.0**-10)
    db = SemanticDatabase(len(values))
    db.ingest("scaled", np.array(values) * 2.0**exp)
    row = db.records[0].embedding.astype(np.float64)
    assert np.linalg.norm(row) <= UNIT_ROW_NORM


def test_ingest_rejects_id_beyond_int64(tmp_path):
    path = tmp_path / "last.rsdb"
    _rsdb_with_ids(path, [(1 << 63) - 1])
    db = SemanticDatabase.load(path)
    with pytest.raises(DomainError, match="int64"):
        db.ingest("one more", [1.0, 0.0])
    assert len(db) == 1


def test_retrieve_exact_match_ranks_first():
    db = SemanticDatabase(4)
    rng = Rng(1)
    rows = _unit_rows(rng, 10, 4)
    for i in range(10):
        db.ingest(f"desc {i}", rows[i])
    res = db.retrieve_top_k(rows[7], k=3)
    assert res[0].id == 7
    assert res[0].score == pytest.approx(1.0, abs=1e-6)


def test_retrieve_k_saturates():
    db = SemanticDatabase(3)
    rng = Rng(2)
    for i in range(5):
        db.ingest(f"d{i}", rng.normal((3,)))
    res = db.retrieve_top_k(rng.normal((3,)), k=50)
    assert len(res) == 5
    scores = [r.score for r in res]
    assert scores == sorted(scores, reverse=True)


def test_retrieve_empty_db_and_k_zero():
    db = SemanticDatabase(2)
    assert db.retrieve_top_k([1.0, 0.0], k=4) == []
    db.ingest("x", [1.0, 0.0])
    assert db.retrieve_top_k([1.0, 0.0], k=0) == []


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_retrieve_validations():
    db = SemanticDatabase(2)
    db.ingest("x", [1.0, 0.0])
    with pytest.raises(ShapeError):
        db.retrieve_top_k([1.0, 0.0, 0.0], k=1)
    with pytest.raises(DomainError):
        db.retrieve_top_k([0.0, 0.0], k=1)
    for bad in ([np.nan, 1.0], [np.inf, 0.0], [1e200, 1e200]):
        with pytest.raises(DomainError, match="non-finite"):
            db.retrieve_top_k(bad, k=1)



def test_retrieve_rejects_near_zero_query():
    # ingest's rule: below 2^-500, q.q underflows and q / norm(q) is off
    # (a norm of 2e-160 gave scores wrong in the 6th digit)
    db = SemanticDatabase(4)
    for i in range(3):
        db.ingest(f"row {i}", [1.0, float(i), 0.5, -1.0])
    for tiny, shown in (([0.0] * 4, "0"), ([1e-200, 0.0, 0.0, 0.0], "0"),
                        ([1e-160, 2e-160, 0.0, -1e-160], "2.[0-9]*e-160")):
        with pytest.raises(DomainError, match=f"^retrieve: zero or near-zero query vector "
                                              f"\\(norm {shown} < 2\\^-500\\)$"):
            db.retrieve_top_k(tiny, k=2)
    query = np.array([0.5, 1.0, 0.25, -0.5])
    want = [(r.id, r.score) for r in db.retrieve_top_k(query, k=3)]
    # a power-of-two scale is exact, so the smallest accepted scale keeps every bit
    assert [(r.id, r.score) for r in db.retrieve_top_k(query * 2.0**-499, k=3)] == want

def test_retrieve_matches_full_sort_oracle():
    rng = Rng(3)
    dim = 8
    db = SemanticDatabase(dim)
    rows = _unit_rows(rng, 50, dim)
    for i in range(50):
        db.ingest(f"text {i}", rows[i])
    q = rng.normal((dim,))
    qn = q / np.linalg.norm(q)
    oracle_scores = {
        rec.id: float(np.clip(rec.embedding.astype(np.float64) @ qn, -1.0, 1.0))
        for rec in db.records
    }
    oracle = sorted(oracle_scores.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
    got = [(r.id, r.score) for r in db.retrieve_top_k(q, k=5)]
    assert got == oracle


def test_tie_break_by_ascending_id():
    db = SemanticDatabase(2)
    db.ingest("first copy", [1.0, 0.0])
    db.ingest("off axis", [0.0, 1.0])
    db.ingest("second copy", [1.0, 0.0])
    res = db.retrieve_top_k([1.0, 0.0], k=3)
    assert [r.id for r in res] == [0, 2, 1]
    assert res[0].score == res[1].score


def test_ranking_invariant_to_ingestion_order():
    rng = Rng(4)
    dim = 6
    rows = _unit_rows(rng, 20, dim)
    texts = [f"text {i}" for i in range(20)]
    q = rng.normal((dim,))

    db1 = SemanticDatabase(dim)
    for t, r in zip(texts, rows):
        db1.ingest(t, r)
    perm = Rng(5).permutation(20)
    db2 = SemanticDatabase(dim)
    for i in perm:
        db2.ingest(texts[i], rows[i])

    top1 = {(db1.get(r.id).text, round(r.score, 12)) for r in db1.retrieve_top_k(q, 8)}
    top2 = {(db2.get(r.id).text, round(r.score, 12)) for r in db2.retrieve_top_k(q, 8)}
    assert top1 == top2


def test_monotone_containment():
    rng = Rng(6)
    db = SemanticDatabase(5)
    for i in range(30):
        db.ingest(f"t{i}", rng.normal((5,)))
    q = rng.normal((5,))
    for k in range(0, 30):
        small = {r.id for r in db.retrieve_top_k(q, k)}
        big = {r.id for r in db.retrieve_top_k(q, k + 1)}
        assert small <= big


def test_query_scale_invariance():
    rng = Rng(7)
    db = SemanticDatabase(4)
    for i in range(25):
        db.ingest(f"t{i}", rng.normal((4,)))
    q = rng.normal((4,))
    base = [(r.id) for r in db.retrieve_top_k(q, 10)]
    for c in (0.25, 2.0, 3.7, 1000.0):
        assert [(r.id) for r in db.retrieve_top_k(c * q, 10)] == base


def test_save_load_round_trip_empty(tmp_path):
    db = SemanticDatabase(3)
    path = tmp_path / "empty.rsdb"
    db.save(path)
    loaded = SemanticDatabase.load(path)
    assert loaded.dim == 3 and len(loaded) == 0


def test_save_load_round_trip_byte_identical(tmp_path):
    rng = Rng(8)
    db = SemanticDatabase(4)
    for i, text in enumerate(["plain field", "river bend é", "city block"]):
        db.ingest(text, rng.normal((4,)))
    p1, p2 = tmp_path / "a.rsdb", tmp_path / "b.rsdb"
    db.save(p1)
    loaded = SemanticDatabase.load(p1)
    loaded.save(p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert [r.text for r in loaded.records] == [r.text for r in db.records]
    for a, b in zip(loaded.records, db.records):
        assert np.array_equal(a.embedding, b.embedding)


def test_load_rejects_corrupt_magic(tmp_path):
    rng = Rng(9)
    db = SemanticDatabase(2)
    db.ingest("x", rng.normal((2,)))
    path = tmp_path / "bad.rsdb"
    db.save(path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"XXXX"
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="magic"):
        SemanticDatabase.load(path)


def test_load_rejects_truncation_with_offset(tmp_path):
    db = SemanticDatabase(2)
    db.ingest("hello", [1.0, 0.5])
    path = tmp_path / "trunc.rsdb"
    db.save(path)
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(FormatError, match="byte"):
        SemanticDatabase.load(path)


def test_load_rejects_bad_version(tmp_path):
    db = SemanticDatabase(2)
    path = tmp_path / "v.rsdb"
    db.save(path)
    blob = bytearray(path.read_bytes())
    blob[4] = 99
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="version"):
        SemanticDatabase.load(path)


def test_ingest_jsonl(tmp_path, capsys):
    path = tmp_path / "recs.jsonl"
    lines = [
        json.dumps({"text": "alpha", "embedding": [1.0, 0.0]}),
        json.dumps({"text": "beta", "embedding": [0.0, 2.0]}),
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "recs.rsdb"
    assert cli.run(["build-db", "--input", str(path), "--out", str(out), "--dim", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 2
    assert SemanticDatabase.load(out).get(1).text == "beta"


def test_ingest_jsonl_reports_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"text": "ok", "embedding": [1, 0]}\nnot json\n', encoding="utf-8")
    with pytest.raises(FormatError, match="line 2"):
        list(iter_jsonl(path))


def _rsdb_with_ids(path, ids, dim=2):
    """An RSDB file whose records carry the given strictly increasing ids."""
    blob = b"RSDB" + struct.pack("<HIQ", 1, dim, len(ids))
    for rec_id in ids:
        blob += struct.pack("<QI", rec_id, 1) + b"x" + np.ones(dim, dtype="<f4").tobytes()
    path.write_bytes(blob)


def _rsdb_error(blob):
    """The FormatError text `SemanticDatabase.load` must raise for `blob`,
    found by reading the documented layout one field at a time; None for a
    file it must accept."""
    class _Fault(Exception):
        pass

    off = 0

    def field(size, what):
        nonlocal off
        if off + size > len(blob):
            raise _Fault(f"truncated payload reading {what} at byte {off}")
        off += size
        return blob[off - size : off]

    try:
        magic = field(4, "magic")
        if magic != b"RSDB":
            return f"bad magic {magic!r} at byte 0, expected b'RSDB'"
        (version,) = struct.unpack("<H", field(2, "version"))
        if version != 1:
            return f"unsupported RSDB version {version} at byte 4"
        (dim,) = struct.unpack("<I", field(4, "dim"))
        if dim == 0:
            return "non-positive dim 0 at byte 6"
        (count,) = struct.unpack("<Q", field(8, "count"))
        need, have = count * (12 + 4 * dim), len(blob) - off
        if have < need:
            return f"truncated payload: {count} records of dim {dim} need {need} bytes at byte 18, {have} remain"
        prev, starts = -1, []
        for i in range(count):
            (rec_id,) = struct.unpack("<Q", field(8, f"record {i} id"))
            if rec_id <= prev:
                return f"record ids not strictly increasing at byte {off - 8}"
            prev = rec_id
            (length,) = struct.unpack("<I", field(4, f"record {i} text length"))
            text = field(length, f"record {i} text")
            try:
                text.decode("utf-8")
            except UnicodeDecodeError as e:
                return f"record {i}: invalid UTF-8 in text at byte {off - length + e.start}"
            starts.append(off)
            field(4 * dim, f"record {i} embedding")
    except _Fault as fault:
        return str(fault)
    if prev >= 1 << 63:
        return f"record {count - 1}: id {prev} exceeds the int64 range"
    if off != len(blob):
        return f"trailing {len(blob) - off} bytes at byte {off}"
    for i, start in enumerate(starts):
        for j in range(dim):
            if not np.isfinite(struct.unpack_from("<f", blob, start + 4 * j)[0]):
                return f"non-finite value in record {i} embedding at byte {start + 4 * j}"
    return None


def _three_records():
    """A 3-record RSDB whose first text is long and multi-byte, so that every
    field of records 1 and 2 can be cut short while the header's size check
    still passes, and the byte offset of each record's fields."""
    texts = ["étang " * 12, "river", "city block"]
    blob = bytearray(b"RSDB" + struct.pack("<HIQ", 1, 2, 3))
    fields = []
    for rec_id, text in zip((3, 7, 8), texts):
        raw = text.encode("utf-8")
        fields.append({"id": len(blob), "length": len(blob) + 8, "text": len(blob) + 12,
                       "embedding": len(blob) + 12 + len(raw), "raw": raw})
        blob += struct.pack("<QI", rec_id, len(raw)) + raw + np.array([0.6, 0.8], "<f4").tobytes()
    return bytes(blob), fields


def _corruptions():
    """(case, bytes): every prefix of the 3-record file, then edits of its
    ids, text lengths, count, trailing bytes, text bytes and embeddings."""
    blob, fields = _three_records()
    put = lambda at, fmt, value: blob[:at] + struct.pack(fmt, value) + blob[at + struct.calcsize(fmt):]
    for cut in range(len(blob)):
        yield f"cut {cut}", blob[:cut]
    for i, f in enumerate(fields):
        for rec_id in (0, 3, 7, 8, 9, (1 << 63) - 1, 1 << 63, (1 << 64) - 1):
            yield f"record {i} id {rec_id}", put(f["id"], "<Q", rec_id)
            yield f"record {i} id {rec_id}, length cut", put(f["id"], "<Q", rec_id)[: f["length"] + 2]
        for length in (0, 1, 2, 5, len(f["raw"]) - 1, len(f["raw"]) + 1, len(f["raw"]) + 9,
                       1000, (1 << 32) - 1):
            yield f"record {i} length {length}", put(f["length"], "<I", length)
        yield f"record {i} embedding nan", put(f["embedding"] + 4, "<f", float("nan"))
        yield f"record {i} bad byte", put(f["text"] + 1, "<B", 0xFF)
    for count in (0, 1, 2, 4, 1 << 40):
        yield f"count {count}", put(10, "<Q", count)
    yield "dim 0", put(6, "<I", 0)
    yield "dim 3", put(6, "<I", 3)
    yield "version 2", put(4, "<H", 2)
    yield "magic", b"RSDX" + blob[4:]
    for extra in (b"\0", b"tail!"):
        yield f"trailing {len(extra)}", blob + extra
    yield "split character", put(fields[0]["length"], "<I", 1)[:-1]


def test_rsdb_loader_messages_match_a_field_by_field_reading(tmp_path):
    """Every truncation and corruption of a small file gets the exact message
    and byte offset of the first field that is short or wrong."""
    blob, _ = _three_records()
    assert _rsdb_error(blob) is None
    seen = set()
    for n, (case, data) in enumerate(_corruptions()):
        path = tmp_path / f"case-{n}.rsdb"
        path.write_bytes(data)
        want = _rsdb_error(data)
        if want is None:
            SemanticDatabase.load(path).save(tmp_path / f"again-{n}.rsdb")
            assert (tmp_path / f"again-{n}.rsdb").read_bytes() == data, case
            continue
        with pytest.raises(FormatError) as raised:
            SemanticDatabase.load(path)
        assert str(raised.value) == want, case
        seen.add(re.sub(r"(?<![\w-])\d+", "N", want))
    # each kind of message the loader has, with every record-level label
    for label in ("id", "text length", "text", "embedding"):
        assert f"truncated payload reading record N {label} at byte N" in seen
    assert {"record ids not strictly increasing at byte N", "record N: id N exceeds the int64 range",
            "record N: invalid UTF-8 in text at byte N", "trailing N bytes at byte N",
            "non-finite value in record N embedding at byte N"} <= seen


def _scan(db, record_id):
    return next((rec for rec in db.records if rec.id == record_id), None)


@settings(max_examples=100)
@given(ids=st.lists(st.integers(0, (1 << 63) - 2), unique=True, max_size=40).map(sorted),
       data=st.data())
def test_get_matches_linear_scan(tmp_path_factory, ids, data):
    path = tmp_path_factory.mktemp("ids") / "ids.rsdb"  # a fresh file: overwriting one flushes it
    _rsdb_with_ids(path, ids)
    db = SemanticDatabase.load(path)
    db.ingest("appended", [1.0, 0.0])  # id one past the last loaded id
    present = [rec.id for rec in db.records]
    probes = [present[0], present[-1], present[-1] + 1, -1]
    probes += data.draw(st.lists(st.sampled_from(present), max_size=5), label="present")
    probes += data.draw(st.lists(st.integers(-2, 1 << 63), max_size=5), label="any")
    for record_id in probes:
        want = _scan(db, record_id)
        if want is None:
            with pytest.raises(KeyError):
                db.get(record_id)
        else:
            got = db.get(record_id)
            assert (got.id, got.text) == (want.id, want.text)
            assert got.embedding.dtype == np.float32 and np.array_equal(got.embedding, want.embedding)


def _check_against_oracle(db, rng):
    # A flat query ties rows that permute one another, up to rounding.
    queries = [rng.normal((db.dim,)), np.ones(db.dim)] + [db.records[len(db) // 2].embedding]
    for q in queries:
        want = _oracle_top_k(db, q, len(db))
        for k in range(len(db) + 2):
            assert _top_k(db, q, k) == want[:k]


def _ingest_some(db, rng, n, label):
    """Random rows, every third one a permutation of the row before it."""
    for i in range(n):
        if i % 3 == 2:
            row = db.records[-1].embedding[rng.permutation(db.dim)]
        else:
            row = rng.normal((db.dim,))
        db.ingest(f"{label} {i}", row)
        _check_against_oracle(db, rng)


def test_retrieval_follows_every_way_records_arrive(tmp_path):
    rng = Rng(12)
    db = SemanticDatabase(5)
    _ingest_some(db, rng, 40, "built")  # past the first two capacity doublings
    db.save(tmp_path / "a.rsdb")
    loaded = SemanticDatabase.load(tmp_path / "a.rsdb")
    _check_against_oracle(loaded, rng)
    _ingest_some(loaded, rng, 20, "added")  # a loaded matrix has no spare rows
    loaded.save(tmp_path / "b.rsdb")
    again = SemanticDatabase.load(tmp_path / "b.rsdb")
    _check_against_oracle(again, rng)
    assert [(r.id, r.text) for r in again.records] == [(r.id, r.text) for r in loaded.records]
    again.save(tmp_path / "c.rsdb")
    assert (tmp_path / "b.rsdb").read_bytes() == (tmp_path / "c.rsdb").read_bytes()


# float32 values in [-1, 1] with up to 24 significant bits, so that products
# and sums round
_F32 = st.integers(-(1 << 24), 1 << 24).map(lambda m: m * 2.0**-24)


@st.composite
def _adversarial_rows(draw):
    """float32 rows of any norm, then rows that repeat an earlier row,
    permute its coordinates (a tie under a flat query, up to rounding), sit
    1 ulp from it in one coordinate, are it scaled to unit norm, or add and
    take 1024 in two coordinates (a large norm, and rounding errors in the
    dot products far above those of a unit row)."""
    dim = draw(st.integers(1, 8), label="dim")
    rows = draw(st.lists(st.lists(_F32, min_size=dim, max_size=dim), min_size=1, max_size=6))
    rows = [np.array(r, dtype=np.float32) for r in rows]
    for _ in range(draw(st.integers(0, 16), label="derived")):
        base = rows[draw(st.integers(0, len(rows) - 1))]
        kind = draw(st.sampled_from(["same", "perm", "ulp", "unit", "spread"]))
        if kind == "same":
            rows.append(base.copy())
        elif kind == "perm":
            rows.append(base[draw(st.permutations(range(dim)))])
        elif kind == "ulp":
            j = draw(st.integers(0, dim - 1))
            row = base.copy()
            row[j] = np.nextafter(row[j], np.float32(draw(st.sampled_from([-np.inf, np.inf]))))
            rows.append(row)
        elif kind == "unit" and np.any(base):
            rows.append((base / np.linalg.norm(base.astype(np.float64))).astype(np.float32))
        elif kind == "spread" and dim > 1:
            j, j2 = draw(st.permutations(range(dim)))[:2]
            row = base.copy()
            row[j] += np.float32(1024.0)
            row[j2] -= np.float32(1024.0)
            rows.append(row)
    order = draw(st.permutations(range(len(rows))))
    return dim, [rows[i] for i in order]


@given(case=_adversarial_rows(), data=st.data())
def test_retrieve_matches_oracle_on_adversarial_rows(tmp_path_factory, case, data):
    dim, rows = case
    gaps = data.draw(st.lists(st.integers(1, 3), min_size=len(rows), max_size=len(rows)), label="gaps")
    blob = b"RSDB" + struct.pack("<HIQ", 1, dim, len(rows))
    for rec_id, row in zip(np.cumsum(gaps), rows):
        blob += struct.pack("<QI", int(rec_id), 1) + b"x" + row.astype("<f4").tobytes()
    path = tmp_path_factory.getbasetemp() / f"adversarial-{next(_EXAMPLE)}.rsdb"
    path.write_bytes(blob)
    db = SemanticDatabase.load(path)
    kind = data.draw(st.sampled_from(["stored", "flat", "any"]), label="query")
    if kind == "stored":
        query = rows[data.draw(st.integers(0, len(rows) - 1), label="row")].astype(np.float64)
    elif kind == "flat":
        query = np.full(dim, data.draw(_F32, label="value"))
    else:
        query = np.array(data.draw(st.lists(_F32, min_size=dim, max_size=dim), label="values"))
    assume(np.any(query))
    n = len(rows)
    for k in sorted({0, 1, n, n + 3, data.draw(st.integers(0, n), label="k")}):
        assert _top_k(db, query, k) == _oracle_top_k(db, query, k)


def _many_records():
    """A 300-record RSDB of ASCII and multi-byte texts, among them one of
    more than 256 bytes and some that end in a 4-byte character, and the
    byte offset of each record's fields."""
    words = ["field", "étang", "rivière", "港口", "森林", "🌊", "farm 🛰", "bridge"]
    blob = bytearray(b"RSDB" + struct.pack("<HIQ", 1, 2, 300))
    fields, rng = [], np.random.default_rng(17)
    for i in range(300):
        if i == 150:
            text = "dense residential block, " * 12 + "港"
        elif i == 299:
            text = "harbor bridge"
        else:
            text = " ".join(rng.choice(words, size=1 + i % 4)) + (" 🌊" if i % 7 == 3 else "")
        raw = text.encode("utf-8")
        fields.append({"id": len(blob), "length": len(blob) + 8, "text": len(blob) + 12,
                       "embedding": len(blob) + 12 + len(raw), "raw": raw})
        blob += struct.pack("<QI", 5 + 3 * i, len(raw)) + raw + rng.normal(size=2).astype("<f4").tobytes()
    return bytes(blob), fields


def _many_corruptions():
    """(case, bytes): faults planted late in the 300-record file, in records
    that are not the first, and cuts inside every field of a late record."""
    blob, fields = _many_records()
    put = lambda at, fmt, value: blob[:at] + struct.pack(fmt, value) + blob[at + struct.calcsize(fmt):]
    long_text = fields[150]
    assert len(long_text["raw"]) > 256
    yield "bad byte ending a long text", put(long_text["text"] + len(long_text["raw"]) - 1, "<B", 0xFF)
    ascii_text = next(f for f in fields[100:] if f["raw"].isascii())
    yield "a continuation byte in an ASCII text", put(ascii_text["text"] + 1, "<B", 0x80)
    last = fields[299]
    yield "bad byte ending the last text, then the file cut", put(last["embedding"] - 1, "<B", 0xFF)[
        : last["embedding"]]
    for i in (10, 283):
        assert fields[i]["raw"].endswith("🌊".encode("utf-8"))
        for cut in (1, 2, 3):
            yield f"record {i} 4-byte character cut by {cut}", put(fields[i]["length"], "<I",
                                                                  len(fields[i]["raw"]) - cut)
    for i in (40, 297):
        yield f"record {i} length 0", put(fields[i]["length"], "<I", 0)
        empty = blob[: fields[i]["length"]] + struct.pack("<I", 0) + blob[fields[i]["embedding"]:]
        yield f"record {i} an empty text", empty
    for i in (250, 299):
        for rec_id in (0, 5 + 3 * (i - 1), 5 + 3 * i - 1):
            yield f"record {i} id {rec_id}", put(fields[i]["id"], "<Q", rec_id)
    for rec_id in (1 << 63, (1 << 64) - 1):
        yield f"last id {rec_id}", put(fields[299]["id"], "<Q", rec_id)
        yield f"last id {rec_id}, and a NaN before it", put(fields[290]["embedding"], "<f", float("nan"))[
            : fields[299]["id"]] + struct.pack("<Q", rec_id) + blob[fields[299]["length"]:]
    for i, j in ((260, 1), (299, 0)):
        yield f"record {i} embedding nan", put(fields[i]["embedding"] + 4 * j, "<f", float("nan"))
    yield "record 295 embedding -inf", put(fields[295]["embedding"], "<f", float("-inf"))
    for cut in range(fields[297]["id"], fields[298]["id"]):
        yield f"cut {cut}", blob[:cut]
    for cut in range(fields[299]["id"], len(blob)):
        yield f"cut {cut}", blob[:cut]
    yield "trailing", blob + b"\x80"


def test_rsdb_loader_messages_match_on_a_many_record_file(tmp_path):
    """The column-wise checks find the same first fault, message and byte
    offset as a field-by-field reading, on a file long enough that each
    check sees hundreds of records."""
    blob, fields = _many_records()
    assert _rsdb_error(blob) is None
    (tmp_path / "whole.rsdb").write_bytes(blob)
    db = SemanticDatabase.load(tmp_path / "whole.rsdb")
    assert [r.text.encode("utf-8") for r in db.records] == [f["raw"] for f in fields]
    seen = set()
    for n, (case, data) in enumerate(_many_corruptions()):
        path = tmp_path / f"case-{n}.rsdb"
        path.write_bytes(data)
        want = _rsdb_error(data)
        if want is None:
            SemanticDatabase.load(path).save(tmp_path / f"again-{n}.rsdb")
            assert (tmp_path / f"again-{n}.rsdb").read_bytes() == data, case
            seen.add("accepted")
            continue
        with pytest.raises(FormatError) as raised:
            SemanticDatabase.load(path)
        assert str(raised.value) == want, case
        seen.add(re.sub(r"(?<![\w-])\d+", "N", want))
    for label in ("id", "text length", "text", "embedding"):
        assert f"truncated payload reading record N {label} at byte N" in seen
    assert {"accepted", "record ids not strictly increasing at byte N", "record N: id N exceeds the int64 range",
            "record N: invalid UTF-8 in text at byte N", "trailing N bytes at byte N",
            "non-finite value in record N embedding at byte N"} <= seen


# Unicode text that UTF-8 can encode (no lone surrogates), with 2-, 3- and
# 4-byte characters drawn often enough to matter
_TEXTS = st.lists(st.text(st.characters(exclude_categories=("Cs",)) | st.sampled_from("éß漢字🌊𝄞"),
                          min_size=1, max_size=12), min_size=1, max_size=20)


@settings(max_examples=60)
@given(texts=_TEXTS)
def test_texts_round_trip_through_ingest_save_and_load(tmp_path_factory, texts):
    base = tmp_path_factory.mktemp("texts")  # fresh files: overwriting one flushes it
    db = SemanticDatabase(3)
    for i, text in enumerate(texts):
        db.ingest(text, [1.0, float(i), -0.5])
    db.save(base / "a.rsdb")
    loaded = SemanticDatabase.load(base / "a.rsdb")
    assert [r.text for r in loaded.records] == texts
    assert [loaded.get(i).text for i in range(len(texts))] == texts
    loaded.save(base / "b.rsdb")
    assert (base / "b.rsdb").read_bytes() == (base / "a.rsdb").read_bytes()
    other = SemanticDatabase.load(base / "a.rsdb")
    assert loaded.ingest("añadido 🌊", [0.0, 1.0, 0.0]) == len(texts)
    assert loaded.get(len(texts)).text == "añadido 🌊" and len(loaded) == len(texts) + 1
    assert [r.text for r in loaded.records] == texts + ["añadido 🌊"]
    # a database loaded from the same file keeps its own texts
    assert len(other) == len(texts) and [r.text for r in other.records] == texts
    other.save(base / "c.rsdb")
    assert (base / "c.rsdb").read_bytes() == (base / "a.rsdb").read_bytes()
    assert other.ingest("other", [1.0, 0.0, 0.0]) == len(texts)
    assert other.get(len(texts)).text == "other" and loaded.get(len(texts)).text == "añadido 🌊"
