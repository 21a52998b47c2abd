import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsvlm import cli
from rsvlm.errors import DomainError, FormatError, ShapeError
from rsvlm.numerics import Rng
from rsvlm.semantic_store import SemanticDatabase, iter_jsonl


def _unit_rows(rng, n, dim):
    m = rng.normal((n, dim))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


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


def test_ingest_validations():
    db = SemanticDatabase(2)
    with pytest.raises(ShapeError):
        db.ingest("bad", [1.0, 2.0, 3.0])
    with pytest.raises(DomainError):
        db.ingest("zero", [0.0, 0.0])
    with pytest.raises(DomainError):
        db.ingest("", [1.0, 0.0])


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


def test_retrieve_validations():
    db = SemanticDatabase(2)
    db.ingest("x", [1.0, 0.0])
    with pytest.raises(ShapeError):
        db.retrieve_top_k([1.0, 0.0, 0.0], k=1)
    with pytest.raises(DomainError):
        db.retrieve_top_k([0.0, 0.0], k=1)


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


def _scan(db, record_id):
    return next((rec for rec in db.records if rec.id == record_id), None)


@settings(max_examples=100)
@given(ids=st.lists(st.integers(0, (1 << 63) - 2), unique=True, max_size=40).map(sorted),
       data=st.data())
def test_get_matches_linear_scan(tmp_path_factory, ids, data):
    path = tmp_path_factory.getbasetemp() / "ids.rsdb"
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
            assert db.get(record_id) is want
