"""The benchmark's workloads: caption and vqa.

Each workload runs in one process as a single closed-loop client and
exercises every phase of the program: set-up, one training stage, serving,
and the database's build, save and load. The workloads differ in the
training stage, the size of the serving database and the answer length, so
they weigh the phases differently. Inputs come from the workload seed
alone; the model and the retriever are initialised from fixed seeds, so two
runs differ only in their inputs. Every timed phase is followed, outside
its timing, by checks against the independent references in `reference.py`.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from rsvlm import autodiff as ad
from rsvlm import dual_encoder as de
from rsvlm import expert_layer
from rsvlm import model as vlm
from rsvlm import training
from rsvlm.errors import ConfigError, DomainError, FormatError, ShapeError
from rsvlm.semantic_store import SemanticDatabase

import reference as ref
from tracing import SpanIndex, Tracer, graph_nodes

PROGRAM_ERRORS = (ConfigError, DomainError, FormatError, ShapeError)
clock = time.perf_counter

MODEL_SEED = 1
EXPERT_INIT_STD = 0.1
RETRIEVER_SEED = 2
D_E, BOW_VOCAB, ENC_HIDDEN = 16, 256, 32  # the toy profile's retriever
K, SEMANTIC_CAP = 5, 512
PATCHES = 16
BATCH = 16
CORPUS = 64  # samples per training corpus: four 16-sample steps per round
TRAIN_DB, CAPTION_DB, VQA_DB = 256, 1024, 20000
CAPTION_TOKENS, VQA_TOKENS = 32, 4
ROUND = 10  # requests per serving round
MIN_CYCLES = 10  # at least 100 requests, so the p90 has ten beyond it
SETUPS, SETUP_SECONDS = 5, 2.0
BUILD_CHUNK = 1000  # records per timed build window
WINDOW_S = 0.2  # least length of a save or load window
VQA_ORACLE_EVERY = 20

STAGE1 = training.TrainConfig(stage=training.STAGE_ALIGNMENT, batch_size=BATCH, lr_prompter=1e-2)
STAGE2 = training.TrainConfig(stage=training.STAGE_INSTRUCTION, batch_size=BATCH,
                              lr_visual=1e-3, lr_prompter=1e-3, lr_lm=1e-3)

WORDS = ("dense sparse residential industrial commercial farmland orchard river bridge harbor "
         "airport runway forest desert meadow lake beach parking lot stadium road railway "
         "church school tank storage pond island bare soil terrace golf course playground "
         "roundabout overpass viaduct ship plane truck tennis court baseball field wetland "
         "snow mountain cloud greenhouse quarry dam").split()


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    notes: dict = field(default_factory=dict)

    def check(self, ok, what: str) -> None:
        if not ok:
            self.problems.append(what)

    def fail(self, what: str) -> None:
        """An operation raised: counted, and judged by no check."""
        self.failed += 1
        print(f"failed: {what}", file=sys.stderr)


# ---------------------------------------------------------------- inputs

def _words(rng, lo, hi) -> str:
    return " ".join(WORDS[i] for i in rng.integers(len(WORDS), size=int(rng.integers(lo, hi + 1))))


def scene_corpus(rng, n: int) -> list[str]:
    """Scene descriptions. About a tenth repeat an earlier text, a tenth
    reorder one (same bag of tokens, so the same embedding) and a tenth
    extend one by a word (a near-duplicate embedding)."""
    texts: list[str] = []
    for i in range(n):
        r = rng.random()
        if i < 8 or r >= 0.3:
            texts.append(_words(rng, 3, 7))
            continue
        base = texts[int(rng.integers(i))].split()
        if r < 0.1:
            texts.append(" ".join(base))
        elif r < 0.2:
            texts.append(" ".join(base[j] for j in rng.permutation(len(base))))
        else:
            texts.append(" ".join(base[:9] + [WORDS[int(rng.integers(len(WORDS)))]]))
    return texts


def caption_query(rng) -> str:
    w = [WORDS[i] for i in rng.integers(len(WORDS), size=2)]
    return str(rng.choice(["describe the image", "caption this scene",
                           f"what does this {w[0]} area show", f"describe the {w[0]} and {w[1]} in view"]))


def vqa_query(rng) -> str:
    w = WORDS[int(rng.integers(len(WORDS)))]
    return str(rng.choice([f"is there a {w}?", f"how many {w} are visible?",
                           f"what is next to the {w}?", f"which {w} is larger?"]))


def patch_grid(rng) -> np.ndarray:
    return rng.normal(size=(PATCHES, vlm.ModelConfig().patch_dim))


def request(seed: int, i: int, query_fn):
    """Request i of a run: the same seed and index give the same request."""
    rng = np.random.default_rng([seed, 1, i])
    return patch_grid(rng), vlm.encode_text(query_fn(rng))


# ---------------------------------------------------------------- program set-up

def new_model():
    """The toy-profile model with its expert layer switched on: init leaves
    every expert's V and the gate at zero, which would make the routed
    experts, and so the checks on them, a no-op."""
    model = vlm.init_model(vlm.ModelConfig(), MODEL_SEED)
    rng = np.random.default_rng(MODEL_SEED)
    for name, t in model.named_parameters():
        if ".experts.v" in name or name.endswith(".gate.wg"):
            t.value = rng.normal(0.0, EXPERT_INIT_STD, t.value.shape)
    return model


def new_retriever():
    return de.init_params(vlm.ModelConfig().patch_dim, D_E, BOW_VOCAB, ENC_HIDDEN, RETRIEVER_SEED)


def ingest(db: SemanticDatabase, enc, texts) -> SemanticDatabase:
    for text in texts:
        db.ingest(text, de.encode_text(enc, de.tokenize_text(text, enc.vocab)))
    return db


def timed_setups(tracer: Tracer, setup):
    """Run `setup` at least SETUPS times and for at least SETUP_SECONDS;
    return the last result and the median time."""
    times = []
    while len(times) < SETUPS or sum(times) < SETUP_SECONDS:
        tracer.rid = len(times)
        with tracer.span("bench.setup"):
            t0 = clock()
            out = setup()
            times.append(clock() - t0)
    return out, statistics.median(times)


def peak_rss_mb() -> float:
    """High-water resident memory of this process image. Unlike ru_maxrss,
    VmHWM does not carry over the parent's size from before exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------- checks

def mean_loss(model, samples) -> float:
    return float(np.mean([vlm.sample_loss(model, s) for s in samples]))


@dataclass
class Served:
    patches: np.ndarray
    query: list
    sem: list
    first: list
    out: list


def read_rsdb(path):
    """ids, texts and float32 embeddings of an RSDB file, read by the
    documented layout."""
    data = Path(path).read_bytes()
    dim, count = int.from_bytes(data[6:10], "little"), int.from_bytes(data[10:18], "little")
    off, ids, texts, embs = 18, [], [], []
    for _ in range(count):
        ids.append(int.from_bytes(data[off : off + 8], "little"))
        n = int.from_bytes(data[off + 8 : off + 12], "little")
        texts.append(data[off + 12 : off + 12 + n].decode("utf-8"))
        off += 12 + n
        embs.append(np.frombuffer(data[off : off + 4 * dim], dtype="<f4"))
        off += 4 * dim
    return ids, texts, embs


def check_served(res: Result, model, enc, db, db_file, served, cap, oracle_every) -> None:
    ids, texts, embs = read_rsdb(db_file)
    text_of = dict(zip(ids, texts))
    p = ref.params_of(model)
    for n, s in enumerate(served):
        for what, out, limit in (("output", s.out, cap), ("first token", s.first, 1)):
            for problem in ref.greedy_problems(p, model.config, s.patches, s.query, s.sem, out, limit):
                res.problems.append(f"request {n} {what}: {problem}")
        res.check(s.first == s.out[:1], f"request {n}: first token {s.first} vs output {s.out[:1]}")
        if n % oracle_every:
            continue
        qv = de.encode_image(enc, s.patches.mean(axis=0))
        want = ref.oracle_top_k(embs, ids, qv, K)
        got = [(r.id, r.score) for r in db.retrieve_top_k(qv, K)]
        res.check(got == want, f"request {n}: retrieve_top_k {got} vs oracle {want}")
        tokens = []
        for rank, (rid, _) in enumerate(want):
            tokens += ([ref.SEP_ID] if rank else []) + list(text_of[rid].encode("utf-8"))
        res.check(s.sem == (tokens[:SEMANTIC_CAP] or [ref.SEP_ID]), f"request {n}: semantic tokens differ")


def check_database(res: Result, db_file, resaved, db_texts) -> None:
    ids, texts, embs = read_rsdb(db_file)
    norms = np.linalg.norm(np.asarray(embs, dtype=np.float64), axis=1)
    res.check(np.all(np.abs(norms - 1.0) <= 1e-6), f"embedding norms off by {np.max(np.abs(norms - 1.0))}")
    res.check(all(a < b for a, b in zip(ids, ids[1:])), "record ids not strictly increasing")
    res.check(texts == db_texts, "texts do not round-trip through the database file")
    res.check(Path(db_file).read_bytes() == Path(resaved).read_bytes(), "save -> load -> save changed the bytes")


# ---------------------------------------------------------------- workloads

def write_corpus(rng, path, stage: str) -> None:
    """CORPUS training samples as JSONL: captions for the alignment stage,
    short question-answer pairs for instruction tuning."""
    with open(path, "w", encoding="utf-8") as fh:
        for _ in range(CORPUS):
            if stage == training.STAGE_ALIGNMENT:
                text = {"caption": _words(rng, 3, 6)}
            else:
                text = {"query": vqa_query(rng), "response": _words(rng, 1, 3)}
            fh.write(json.dumps({"image": patch_grid(rng).tolist(), **text}) + "\n")


def run_workload(seed: int, seconds: float, tracer: Tracer, workdir: Path, *, stage: str, db_size: int,
                 cap: int, query_fn, oracle_every: int) -> Result:
    """Set-up, then cycles until `seconds` pass and at least MIN_CYCLES are
    done. A cycle is one training round (an epoch of the corpus), one serving
    round (ROUND requests against the database) and one maintenance round (a
    build window, a save window and a load window, whose copy the next
    serving round uses). Spreading every phase over the whole run keeps a
    slow stretch of the machine from deciding any one metric."""
    res = Result()
    corpus, db_file, resaved = workdir / "corpus.jsonl", workdir / "db.rsdb", workdir / "db-resaved.rsdb"
    write_corpus(np.random.default_rng([seed, 0]), corpus, stage)
    train_texts = scene_corpus(np.random.default_rng([seed, 2]), TRAIN_DB)
    db_texts = scene_corpus(np.random.default_rng([seed, 3]), db_size)
    train_fn = "train_stage1" if stage == training.STAGE_ALIGNMENT else "train_stage2"
    cfg = STAGE1 if stage == training.STAGE_ALIGNMENT else STAGE2

    def setup():
        enc = new_retriever()
        db = ingest(SemanticDatabase(enc.d_e), enc, train_texts)
        samples = training.load_samples(corpus, stage, retriever=enc, db=db, k=K, semantic_cap=SEMANTIC_CAP)
        return new_model(), enc, samples

    with tracer.measuring():
        (model, enc, samples), setup_s = timed_setups(tracer, setup)

    p = ref.params_of(model)
    for i, s in enumerate(samples):
        got, want = vlm.sample_loss(model, s), ref.sample_cross_entropy(p, model.config, s)
        res.check(abs(got - want) <= 1e-9 * abs(want), f"sample {i}: sample_loss {got} vs reference {want}")
    frozen = {n: t.value.copy() for n, t in model.named_parameters() if n.startswith(("visual.", "lm."))}
    loss_before = mean_loss(model, samples)

    # Serving uses a model of its own, so its outputs do not depend on how
    # many training rounds the machine's speed allowed.
    server = new_model()
    serving = [ingest(SemanticDatabase(enc.d_e), enc, db_texts)]  # the copy requests use
    serving[0].save(db_file)

    train_rates, losses = [], []
    served, ttft, total, gen_rates = [], [], [], []
    build_s, save_s, load_s = [], [], []

    def train_round(r):
        res.attempted += 1
        tracer.rid = r
        with tracer.span("bench.train"):
            t0 = clock()
            try:
                _, history = getattr(training, train_fn)(model, samples, cfg)
            except PROGRAM_ERRORS as e:
                res.fail(f"{train_fn} round {r}: {e}")
                return
            dt = clock() - t0
        losses.extend(history)
        train_rates.append(len(samples) / dt)

    def serve_round(db):
        for _ in range(ROUND):
            i = len(served)
            patches, query = request(seed, i, query_fn)
            res.attempted += 1
            tracer.rid = i
            with tracer.span("bench.request"):
                try:
                    t0 = clock()
                    sem = training.retrieve_semantics(patches, enc, db, K, SEMANTIC_CAP)
                    t1 = clock()
                    with tracer.span("bench.ttft"):
                        first = vlm.generate(server, patches, query, 1, sem)
                    t2 = clock()
                    out = vlm.generate(server, patches, query, cap, sem)
                    t3 = clock()
                except PROGRAM_ERRORS as e:
                    res.fail(f"request {i}: {e}")
                    served.append(None)
                    continue
            ttft.append(1e3 * (t2 - t0))
            total.append(1e3 * ((t1 - t0) + (t3 - t2)))
            gen_rates.append(len(out) / (t3 - t2))
            served.append(Served(patches, query, sem, first, out))

    def window(span, times, fn):
        """Calls of `fn` until WINDOW_S pass; records the mean time per call
        and returns the last call's result."""
        with tracer.span(span) as s:
            calls, out, t0 = 0, None, clock()
            while calls == 0 or clock() - t0 < WINDOW_S:
                res.attempted += 1
                out = None  # one result alive at a time
                out = fn()
                calls += 1
            times.append((clock() - t0) / calls)
            s.counts["calls"] = calls
        return out

    chunks = 0

    def build_chunk():
        """BUILD_CHUNK texts, the next ones of the database's in turn, into
        an empty database."""
        nonlocal chunks
        start, chunks = chunks * BUILD_CHUNK, chunks + 1
        ingest(SemanticDatabase(enc.d_e), enc,
               [db_texts[(start + j) % len(db_texts)] for j in range(BUILD_CHUNK)])

    def maintain(r):
        """A build window, a save window of the served copy, and a load
        window of the file, whose last copy is served next. The served copy
        is freed before the load window, outside the timed windows, so the
        peak memory does not depend on the run's length or the number of
        calls in a window."""
        tracer.rid = r
        window("bench.build", build_s, build_chunk)
        window("bench.save", save_s, lambda: serving[0].save(resaved))
        serving[0] = None
        gc.collect()
        serving[0] = window("bench.load", load_s, lambda: SemanticDatabase.load(db_file))

    with tracer.measuring():
        maintain(0)
        t_end = clock() + seconds
        cycles = 0
        while cycles < MIN_CYCLES or clock() < t_end:
            cycles += 1
            train_round(cycles)
            serve_round(serving[0])
            maintain(cycles)

    n = len(db_texts)
    res.metrics["setup_s"] = (setup_s, "s")
    if train_rates:
        res.metrics["train_samples_per_s"] = (statistics.median(train_rates), "samples/s")
    if total:
        res.metrics["ttft_ms_p50"] = (statistics.median(ttft), "ms")
        res.metrics["request_ms_p50"] = (statistics.median(total), "ms")
        res.metrics["request_ms_p90"] = (float(np.percentile(total, 90)), "ms")
    if gen_rates:
        res.metrics["gen_tokens_per_s"] = (statistics.median(gen_rates), "tokens/s")
    # The median chunk time scaled to the whole database, plus the median save.
    build = statistics.median(build_s) * n / BUILD_CHUNK + statistics.median(save_s)
    res.metrics["build_db_records_per_s"] = (n / build, "records/s")
    res.metrics["db_load_ms"] = (1e3 * statistics.median(load_s), "ms")
    res.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")

    res.check(np.all(np.isfinite(losses)), f"{train_fn}: non-finite step loss")
    if stage == training.STAGE_ALIGNMENT:
        moved = [name for name, t in model.named_parameters()
                 if name in frozen and not np.array_equal(frozen[name], t.value)]
        res.check(not moved, f"stage 1 changed frozen parameters {moved[:3]}")
    loss_after = mean_loss(model, samples)
    res.check(loss_after < loss_before, f"{train_fn}: mean loss {loss_before} -> {loss_after}")
    check_database(res, db_file, resaved, db_texts)
    check_served(res, server, enc, serving[0], db_file, [s for s in served if s is not None], cap, oracle_every)
    res.notes = {"cycles": cycles, "requests": len(served), "tokens": sum(len(s.out) for s in served if s),
                 "loss": [loss_before, loss_after],
                 **{f"{name}_ms": [1e3 * t for t in times] for name, times in
                    (("load", load_s), ("build_chunk", build_s), ("save", save_s))}}
    return res


def run_caption(seed: int, seconds: float, tracer: Tracer, workdir: Path) -> Result:
    return run_workload(seed, seconds, tracer, workdir, stage=training.STAGE_ALIGNMENT, db_size=CAPTION_DB,
                        cap=CAPTION_TOKENS, query_fn=caption_query, oracle_every=1)


def run_vqa(seed: int, seconds: float, tracer: Tracer, workdir: Path) -> Result:
    return run_workload(seed, seconds, tracer, workdir, stage=training.STAGE_INSTRUCTION, db_size=VQA_DB,
                        cap=VQA_TOKENS, query_fn=vqa_query, oracle_every=VQA_ORACLE_EVERY)


WORKLOADS = {"caption": run_caption, "vqa": run_vqa}


# ---------------------------------------------------------------- traced run

def points(tracer: Tracer):
    """Bindings the traced run wraps: (owner, attribute, span name, counter).
    A span is named after the binding it wraps."""
    rows = lambda args, result: {"rows": args[1].shape[0]}  # attention query rows
    nodes_in = lambda args, result: {"nodes": graph_nodes(args[0])}
    nodes_out = lambda args, result: {"nodes": graph_nodes(result)}
    tokens = lambda args, result: {"tokens": len(result)}
    owners = [
        (training, "load_samples", None), (training, "train_stage1", None),
        (training, "train_stage2", None), (training, "sample_loss_graph", None),
        (training.AdamW, "step", None),
        (ad, "backward", nodes_in), (ad, "cross_entropy", None),
        (vlm, "_encode_multilevel_graph", None), (vlm, "build_prompt_graph", None),
        (vlm, "_lm_logits_graph", nodes_out), (vlm, "attention_output", rows),
        (vlm, "expert_block_graph", None), (vlm, "ffn_graph", None),
        (expert_layer, "ffn_graph", None), (vlm, "generate", tokens),
        (de, "encode_image", None), (de, "encode_text", None),
        (SemanticDatabase, "retrieve_top_k", None), (SemanticDatabase, "get", None),
        (SemanticDatabase, "ingest", None), (SemanticDatabase, "save", None),
    ]
    return [(owner, attr, f"{_owner_name(owner)}.{attr}", counter) for owner, attr, counter in owners]


def _owner_name(owner) -> str:
    if isinstance(owner, type):
        return f"{owner.__module__.removeprefix('rsvlm.')}.{owner.__qualname__}"
    return owner.__name__.removeprefix("rsvlm.")


LM = "model._lm_logits_graph"
ATTN = "model.attention_output"
FFN = ("model.ffn_graph", "expert_layer.ffn_graph")
STEP = "training.AdamW.step"
GEN = "model.generate"
TRAIN = "bench.train"


def _per(value, base):
    return value / base if base else None


def train_layers(ix: SpanIndex) -> list:
    """(name, unit, bindings needed, value) per optimizer step of the
    training rounds, and `load_samples` per set-up."""
    steps = len(ix.select(STEP, within=(TRAIN,)))
    need = [STEP]

    def ms(names, self_only=False, parent=None):
        return _per(ix.total_ms(ix.select(names, within=(TRAIN,), parent=parent), self_only), steps)

    backward = ix.select("autodiff.backward", within=(TRAIN,))
    loads = ix.select("training.load_samples", within=("bench.setup",))
    return [
        ("train.autodiff.nodes_per_step", "count", need + ["autodiff.backward"],
         _per(ix.total_count(backward, "nodes"), steps)),
        ("train.model.forward_ms_per_step", "ms", need + ["training.sample_loss_graph"],
         ms("training.sample_loss_graph")),
        ("train.model.visual_ms_per_step", "ms", need + ["model._encode_multilevel_graph"],
         ms("model._encode_multilevel_graph")),
        ("train.autodiff.backward_ms_per_step", "ms", need + ["autodiff.backward"], ms("autodiff.backward")),
        ("train.training.adamw_ms_per_step", "ms", need, ms(STEP)),
        ("train.prompter.ms_per_step", "ms", need + ["model.build_prompt_graph"], ms("model.build_prompt_graph")),
        ("train.model.lm_attention_ms_per_step", "ms", need + [LM, ATTN], ms(ATTN, parent=LM)),
        ("train.expert_layer.expert_ms_per_step", "ms", need + ["model.expert_block_graph", FFN[1]],
         ms("model.expert_block_graph", self_only=True)),
        ("train.expert_layer.ffn_ms_per_step", "ms", need + [LM, *FFN],
         _per(ix.total_ms(ix.select(FFN, within=(TRAIN, LM))), steps)),
        ("train.autodiff.cross_entropy_ms_per_step", "ms", need + ["autodiff.cross_entropy"],
         ms("autodiff.cross_entropy")),
        ("training.load_samples_ms", "ms", ["training.load_samples"],
         _per(ix.total_ms(loads), len(ix.select("bench.setup")))),
    ]


def request_layers(ix: SpanIndex) -> list:
    """Per-request layers of the full generate; the time-to-first-token
    call is left out."""
    n = len(ix.select("bench.request"))

    def req(names, parent=None):
        return ix.select(names, within=("bench.request",), outside="bench.ttft", parent=parent)

    tokens = ix.total_count(req(GEN), "tokens")
    retrieve = [1e3 * ix.inclusive(i) for i in req("semantic_store.SemanticDatabase.retrieve_top_k")]
    return [
        ("model.tokens_per_request", "count", [GEN], _per(tokens, n)),
        ("model.visual_calls_per_request", "count", [GEN, "model._encode_multilevel_graph"],
         _per(len(req("model._encode_multilevel_graph")), n)),
        ("prompter.calls_per_request", "count", [GEN, "model.build_prompt_graph"],
         _per(len(req("model.build_prompt_graph")), n)),
        ("model.lm_rows_per_token", "count", [GEN, LM, ATTN],
         _per(ix.total_count(req(ATTN, parent=LM), "rows"), tokens)),
        ("autodiff.nodes_per_token", "count", [GEN, LM], _per(ix.total_count(req(LM), "nodes"), tokens)),
        ("model.generate_ms_per_token", "ms", [GEN], _per(ix.total_ms(req(GEN)), tokens)),
        ("dual_encoder.encode_image_ms_per_request", "ms", ["dual_encoder.encode_image"],
         _per(ix.total_ms(req("dual_encoder.encode_image")), n)),
        ("semantic_store.retrieve_ms_p50", "ms", ["semantic_store.SemanticDatabase.retrieve_top_k"],
         statistics.median(retrieve) if retrieve else None),
        ("semantic_store.get_ms_per_request", "ms", ["semantic_store.SemanticDatabase.get"],
         _per(ix.total_ms(req("semantic_store.SemanticDatabase.get")), n)),
    ]


def build_layers(ix: SpanIndex) -> list:
    records = BUILD_CHUNK * ix.total_count(ix.select("bench.build"), "calls")
    saves = [1e3 * ix.inclusive(i) for i in
             ix.select("semantic_store.SemanticDatabase.save", within=("bench.save",))]

    def per_record(name):
        return _per(ix.total_ms(ix.select(name, within=("bench.build",))), records)

    return [
        ("dual_encoder.encode_text_ms_per_record", "ms", ["dual_encoder.encode_text"],
         per_record("dual_encoder.encode_text")),
        ("semantic_store.ingest_ms_per_record", "ms", ["semantic_store.SemanticDatabase.ingest"],
         per_record("semantic_store.SemanticDatabase.ingest")),
        ("semantic_store.save_ms", "ms", ["semantic_store.SemanticDatabase.save"],
         statistics.median(saves) if saves else None),
    ]


def layer_metrics(tracer: Tracer):
    """Every per-layer metric from the spans, and the names of those whose
    bindings are gone or that saw no work; those read 0."""
    metrics, absent = {}, []
    ix = SpanIndex(tracer.spans)
    for name, unit, needs, value in train_layers(ix) + request_layers(ix) + build_layers(ix):
        if value is None or any(n in tracer.absent for n in needs):
            absent.append(name)
            value = 0.0
        metrics[name] = (value, unit)
    return metrics, absent
