"""One sha256 over the numbers the program computes, to compare two source
trees for bit-identity. It covers:

- the loss histories of a stage-1 and a stage-2 run, as float hex;
- every parameter and the RSCK checkpoint bytes after each stage;
- the RSDE bytes of a briefly trained retriever;
- greedy tokens for caption and vqa requests shaped like the benchmark's
  (16 patches, semantics retrieved from a database, 32 and 4 tokens);
- the output of `rsvlm grad-check --seed 0`.

Run it against a tree as `PYTHONPATH=<tree>/src python tests/fingerprint.py`;
two trees whose arithmetic agrees print the same digest. Pytest does not
collect this file; `test_training.py` checks that a small fingerprint is
reproducible.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

import numpy as np

from rsvlm import cli
from rsvlm import dual_encoder as de
from rsvlm import model as vlm
from rsvlm import training
from rsvlm.semantic_store import SemanticDatabase

PATCHES, BATCH, K, SEMANTIC_CAP = 16, 16, 5, 512
D_E, BOW_VOCAB, ENC_HIDDEN = 16, 256, 32
WORDS = ("dense sparse residential industrial farmland river bridge harbor airport runway "
         "forest desert meadow lake beach road railway church school pond island").split()


def _words(rng, lo: int, hi: int) -> str:
    return " ".join(WORDS[i] for i in rng.integers(len(WORDS), size=int(rng.integers(lo, hi + 1))))


def _model(cfg: vlm.ModelConfig):
    """The toy model with its experts and gates switched on, as in the benchmark."""
    model = vlm.init_model(cfg, 1)
    rng = np.random.default_rng(1)
    for name, t in model.named_parameters():
        if ".experts.v" in name or name.endswith(".gate.wg"):
            t.value = rng.normal(0.0, 0.1, t.value.shape)
    return model


def fingerprint(samples: int = 64, requests: int = 8, probes: int = 200) -> str:
    """The digest of `samples`-sample stage-1 and stage-2 runs, `requests`
    greedy requests per task and a `probes`-probe gradient check."""
    h = hashlib.sha256()
    rng = np.random.default_rng(0)
    cfg = vlm.ModelConfig()
    grid = lambda: rng.normal(size=(PATCHES, cfg.patch_dim))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "artifact"

        pairs = [de.ContrastivePair(grid().mean(axis=0), de.tokenize_text(_words(rng, 3, 6), BOW_VOCAB))
                 for _ in range(16)]
        enc, enc_losses = de.train_retriever(pairs, d_img_raw=cfg.patch_dim, d_e=D_E, vocab=BOW_VOCAB,
                                             hidden=ENC_HIDDEN, epochs=5, seed=2)
        de.save_params(enc, path)
        h.update(path.read_bytes())
        h.update(" ".join(float(x).hex() for x in enc_losses).encode())
        db = SemanticDatabase(D_E)
        for _ in range(256):
            text = _words(rng, 3, 7)
            db.ingest(text, de.encode_text(enc, de.tokenize_text(text, BOW_VOCAB)))

        def semantics(patches):
            return training.retrieve_semantics(patches, enc, db, K, SEMANTIC_CAP)

        model = _model(cfg)
        stages = (
            (training.train_stage1, training.TrainConfig(stage=training.STAGE_ALIGNMENT, batch_size=BATCH),
             lambda p: training.caption_sample(p, _words(rng, 3, 6), semantics(p))),
            (training.train_stage2, training.TrainConfig(stage=training.STAGE_INSTRUCTION, batch_size=BATCH,
                                                         lr_visual=1e-3, lr_prompter=1e-3, lr_lm=1e-3),
             lambda p: training.instruction_sample(p, f"is there a {WORDS[int(rng.integers(len(WORDS)))]}?",
                                                   _words(rng, 1, 3), semantics(p))),
        )
        for train, tcfg, sample in stages:
            _, history = train(model, [sample(grid()) for _ in range(samples)], tcfg)
            h.update(" ".join(x.hex() for x in history).encode())
            for name, t in model.named_parameters():
                h.update(name.encode())
                h.update(t.value.tobytes())
            vlm.save_checkpoint(model, path)
            h.update(path.read_bytes())

        for query, cap in (("describe the image", 32), ("what is next to the river?", 4)):
            for _ in range(requests):
                patches = grid()
                out = vlm.generate(model, patches, vlm.encode_text(query), cap, semantics(patches))
                h.update(repr(out).encode())

    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        cli.run(["grad-check", "--seed", "0", "--probes", str(probes)])
    h.update(report.getvalue().encode())
    return h.hexdigest()


if __name__ == "__main__":
    print(fingerprint())
