"""Artifact and JSON outputs replace the previous file only once the new
bytes are all written: a write that fails leaves the old file whole and no
temporary file behind."""

import errno
import os
import threading
from pathlib import Path

import pytest

from rsvlm import cli
from rsvlm import dual_encoder as de
from rsvlm import model as vlm
from rsvlm.artifact import replace_file
from rsvlm.semantic_store import SemanticDatabase

OLD = b"the previous artifact"


def _rsde(path):
    de.save_params(de.init_params(6, 8, 24, 10, seed=0), path)


def _rsck(path):
    vlm.save_checkpoint(vlm.init_model(vlm.ModelConfig(), seed=0), path)


def _rsdb(path):
    db = SemanticDatabase(4)
    db.ingest("a lake", [1.0, 2.0, 3.0, 4.0])
    db.save(path)


def _cli_json(path):
    """The command reports a failed write by its exit code."""
    return cli.run(["grad-check", "--seed", "0", "--probes", "4", "--out", str(path)])


WRITERS = {"rsde": _rsde, "rsck": _rsck, "rsdb": _rsdb, "cli_json": _cli_json}


@pytest.mark.parametrize("kind", sorted(WRITERS))
def test_failed_write_keeps_the_previous_file(tmp_path, monkeypatch, kind):
    target = tmp_path / "out.bin"
    target.write_bytes(OLD)
    write_bytes = Path.write_bytes

    def disk_full(self, data):
        write_bytes(self, data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(Path, "write_bytes", disk_full)
    if kind == "cli_json":
        assert _cli_json(target) == cli.EXIT_IO
    else:
        with pytest.raises(OSError, match="No space left"):
            WRITERS[kind](target)
    monkeypatch.undo()
    assert target.read_bytes() == OLD
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


@pytest.mark.parametrize("kind", sorted(WRITERS))
def test_write_replaces_the_previous_file(tmp_path, kind):
    target = tmp_path / "out.bin"
    target.write_bytes(OLD)
    assert WRITERS[kind](target) in (None, cli.EXIT_OK)
    assert target.read_bytes() != OLD and target.stat().st_size > 0
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


def test_symlink_keeps_naming_its_file(tmp_path):
    real, link = tmp_path / "real.json", tmp_path / "link.json"
    real.write_bytes(OLD)
    link.symlink_to(real)
    replace_file(link, b"new")
    assert link.is_symlink() and real.read_bytes() == b"new"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "real.json"]


def test_pipe_is_written_in_place(tmp_path):
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    replace_file(fifo, b"through the pipe")
    reader.join(timeout=10)
    assert got == [b"through the pipe"]
    assert not fifo.is_file() and [p.name for p in tmp_path.iterdir()] == ["out.fifo"]
