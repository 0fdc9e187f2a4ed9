"""One backbone's process in a benchmark run, or one set-up probe.

    python3 perfbench/worker.py backbone PLAN BACKBONE
    python3 perfbench/worker.py probe PLAN OUT

A backbone worker sets up (import, dataset load, vocabulary build), prints
`{"ready": true}`, then reads one JSON command per line from stdin: train,
save, eval, embed or search, each with a repetition number, and answers each
with one JSON line on stdout. `finish` answers with the run's trace data and
ends the process. Every operation is checked; the answer carries the problem
found, or none, and the timing samples. `run.py` sends the commands, one at a
time across all workers, and reads each worker's peak RSS when it exits.

A probe measures set-up alone: import, dataset load, vocabulary build and
checkpoint load, and writes the monotonic clock at the end of it to OUT.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import sys
import time
import traceback

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

import asmsim  # noqa: E402
from asmsim.autodiff import Tensor  # noqa: E402
from tracing import Tracer, layer_totals  # noqa: E402

mod = {name: importlib.import_module(f"asmsim.{name}")
       for name in ("autodiff", "cli", "corpus", "evaluate", "manifest", "models",
                    "optim", "tokenizer", "train")}

SEARCH_TOP_K = 5
LOSS_CALLS = 2          # train_loss averages the first batch of the first two train() calls
SELF_MATCH = 0.99999
# The learning check moves the initial parameters this share of the way to
# the trained ones; the loss must fall. A full step may overshoot.
CHECK_STEP = 0.01


class Counts:
    """Work counts gathered by the tracing hooks."""

    def __init__(self):
        self.n = {}
        self.batch_ids: set = set()
        self.batch_rows = 0
        self.batches: list[tuple[int, int, int]] = []   # (pairs, grid rows, unique token ids)
        self.encoded: set = set()
        self.search_embedded: set = set()
        self.in_search = False

    def add(self, key, value=1):
        self.n[key] = self.n.get(key, 0) + value


def install(tracer: Tracer, counts: Counts):
    """Wrap asmsim's public functions where the benchmark and asmsim call them."""

    def on_forward(args, kwargs):
        encs = args[1]
        rows = sum(e.n_instructions for e in encs)
        counts.add("rows_forward", rows)
        counts.batch_rows += rows
        for e in encs:
            counts.batch_ids.update(np.unique(e.token_ids).tolist())

    def on_loss(args, kwargs):
        counts.batches.append((len(args[2]), counts.batch_rows, len(counts.batch_ids)))
        counts.batch_rows, counts.batch_ids = 0, set()

    def on_embed_matrix(args, kwargs):
        encs = args[1]
        counts.add("functions_embedded", len(encs))
        if counts.in_search:
            counts.add("search_embedded", len(encs))
            for e in encs:
                counts.search_embedded.add(hashlib.blake2b(e.token_ids.tobytes(),
                                                           digest_size=16).digest())

    def on_encode(args, kwargs):
        ins = getattr(args[1], "instructions", args[1])
        counts.add("encode_calls")
        counts.add("instructions_encoded", len(ins))
        counts.encoded.add(hash(tuple(ins)))

    forward = lambda a, k: "models.forward" if k.get("training") else None  # noqa: E731
    tracer.wrap(mod["models"].TextCNN, "embed_batch", forward, before=on_forward)
    tracer.wrap(mod["models"].Backbone, "embed_batch", forward, before=on_forward)
    tracer.wrap(mod["models"].Backbone, "embed_matrix", "models.embed_matrix",
                before=on_embed_matrix)
    tracer.wrap(mod["autodiff"].Tensor, "backward", "autodiff.backward")
    tracer.wrap(mod["optim"].Adam, "step", "optim.adam")
    tracer.wrap(mod["train"], "cosine_pair_loss_batch", "train.loss", before=on_loss)
    tracer.wrap(mod["train"], "make_pairs", "corpus.make_pairs",
                after=lambda a, k, r: counts.add("pairs_made", len(r)))
    tracer.wrap(mod["train"], "train", "train.train",
                after=lambda a, k, r: counts.add("batches", r.n_batches))
    for owner in (mod["train"], mod["cli"], mod["evaluate"]):
        tracer.wrap(owner, "encode_function", "tokenizer.encode", before=on_encode)
    for owner in (mod["corpus"], mod["cli"]):
        tracer.wrap(owner, "load_dataset", "corpus.load_dataset",
                    after=lambda a, k, r: counts.add("records_loaded", len(r)))
    tracer.wrap(mod["tokenizer"], "build_vocab", "tokenizer.build_vocab",
                after=lambda a, k, r: counts.add("vocab_size", r.size))
    tracer.wrap(mod["models"], "save_checkpoint", "models.save_checkpoint")
    tracer.wrap(mod["cli"], "load_checkpoint", "models.load_checkpoint")
    for owner in (mod["cli"], mod["evaluate"]):
        tracer.wrap(owner, "cosine_matrix", "evaluate.cosine_matrix")
    tracer.wrap(mod["evaluate"], "evaluate_pool", "evaluate.evaluate_pool")
    tracer.wrap(mod["evaluate"], "evaluate_model", "evaluate.evaluate_model")
    tracer.wrap(mod["cli"], "write_manifest", "manifest.write")
    for owner in (mod["manifest"], mod["cli"]):
        tracer.wrap(owner, "file_sha256", "manifest.hash",
                    before=lambda a, k: counts.add("bytes_hashed", os.path.getsize(a[0])))
    tracer.wrap(mod["cli"], "main", lambda a, k: f"cli.{a[0][0]}")


def _quiet(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = mod["cli"].main(argv)
    return code, out.getvalue()


class Worker:
    """One backbone: set up once, then run the operations the parent sends."""

    def __init__(self, plan, bb: str, traced: bool):
        self.plan, self.bb, self.spec = plan, bb, plan["backbones"][bb]
        self.traced = traced
        self.tracer = Tracer()
        self.counts = Counts()
        if traced:
            install(self.tracer, self.counts)
        self.traced_wall_s = 0.0
        self.ckpt = os.path.join(plan["work"], f"{bb}.ckpt")
        self.trained = None
        self.tracer.op = "setup"
        self.tracer.enabled = traced
        self.corpus = mod["corpus"].load_dataset(plan["corpus"])
        self.vocab = mod["tokenizer"].build_vocab(self.corpus.records, min_freq=plan["min_freq"])
        self.tracer.enabled = False
        self.bcfg = asmsim.BackboneConfig(variant=bb, vocab_size=self.vocab.size)

    def run(self, op: str, rep: int) -> dict:
        """One checked operation: the problem found (None if it passed) and its samples."""
        self.tracer.op = f"{op}#{rep}"
        self.tracer.enabled = self.traced
        start = time.monotonic()
        try:
            problem, samples = getattr(self, f"op_{op}")(rep)
        except Exception:  # a failed operation is counted, not fatal
            problem, samples = traceback.format_exc(limit=4), {}
        finally:
            self.tracer.enabled = False
            self.traced_wall_s += time.monotonic() - start
        return {"problem": problem, "samples": samples}

    @contextlib.contextmanager
    def untraced(self):
        """The benchmark's own work inside an operation: no spans, and not
        counted in the traced wall time."""
        was, self.tracer.enabled = self.tracer.enabled, False
        start = time.monotonic()
        try:
            yield
        finally:
            self.traced_wall_s -= time.monotonic() - start
            self.tracer.enabled = was

    def op_train(self, rep):
        spec = self.spec
        sub = asmsim.CorpusIndex([self.corpus.records[i] for i in spec["slices"][rep]])
        tcfg = asmsim.TrainConfig(seed=self.plan["train_seed"], batch_size=spec["batch"],
                                  negatives=spec["negatives"])
        with self.untraced():
            stream = list(mod["corpus"].make_pairs(sub, R=spec["negatives"], seed=tcfg.seed))
        pairs = len(stream)
        if pairs != spec["expected_pairs"][rep]:
            return f"make_pairs gave {pairs} pairs, expected {spec['expected_pairs'][rep]}", {}
        expected = math.ceil(pairs / spec["batch"])
        t0 = time.perf_counter()
        result = mod["train"].train(sub, self.vocab, self.bcfg, tcfg)
        elapsed = time.perf_counter() - t0
        if result.n_batches != expected:
            return f"{result.n_batches} batches, expected {expected}", {}
        if len(result.losses) != expected or not all(map(math.isfinite, result.losses)):
            return f"losses not finite or missing: {result.losses}", {}
        if rep == 0:
            with self.untraced():
                problem = self.check_update(sub, stream, tcfg, result.backbone)
            if problem:
                return problem, {}
        samples = {"train_pairs_per_s": pairs / elapsed}
        if rep < LOSS_CALLS:
            samples["train_loss"] = result.losses[0]
        if rep == 0:
            self.trained = result.backbone
        return None, samples

    def check_update(self, sub, stream, tcfg, trained) -> str | None:
        """The learning check: moving the initial parameters CHECK_STEP of the
        way to the trained ones lowers the loss over the slice's pairs."""
        # epochs=0 returns the backbone train() starts from at this seed
        probe = mod["train"].train(sub, self.vocab, self.bcfg,
                                   asmsim.TrainConfig(seed=tcfg.seed, epochs=0)).backbone
        before = self.pair_loss(probe, stream, tcfg.margin)
        for name, p in probe.params.items():
            p.data = p.data + CHECK_STEP * (trained.params[name].data - p.data)
        after = self.pair_loss(probe, stream, tcfg.margin)
        if after < before:
            return None
        return (f"the update does not lower the loss on its {len(stream)} pairs: "
                f"{before} at the start, {after} at {CHECK_STEP} of the way")

    def pair_loss(self, backbone, pairs, margin) -> float:
        """Loss of `backbone` over `pairs` at inference (no dropout), each
        record embedded once."""
        row = {}
        for p in pairs:
            for rec in (p.anchor, p.other):
                row.setdefault(id(rec), (len(row), rec))
        emb = backbone.embed_matrix([
            asmsim.encode_function(self.vocab, rec, k_tokens=self.bcfg.tokens_per_instruction,
                                   max_positions=self.bcfg.max_positions)
            for _, rec in row.values()])
        e1 = emb[[row[id(p.anchor)][0] for p in pairs]]
        e2 = emb[[row[id(p.other)][0] for p in pairs]]
        loss = mod["train"].cosine_pair_loss_batch(Tensor(e1), Tensor(e2),
                                                   [p.label for p in pairs], margin=margin)
        return loss.item()

    def op_save(self, _rep):
        mod["models"].save_checkpoint(self.ckpt, self.trained, self.vocab)
        return None, {}

    def op_eval(self, _rep):
        report = mod["evaluate"].evaluate_model(self.trained, self.vocab, self.corpus,
                                                n=self.spec["eval_pool"], seed=self.plan["seed"])
        if len(report.results) != 6:
            return f"{len(report.results)} pools, expected 6", {}
        if not 0.0 < report.mean_mrr <= 1.0:
            return f"MRR {report.mean_mrr} out of range", {}
        return None, {"eval_mrr": report.mean_mrr}

    def op_embed(self, _rep):
        spec = self.spec
        out = os.path.join(self.plan["work"], f"{self.bb}.embed.jsonl")
        t0 = time.perf_counter()
        code, _ = _quiet(["embed", spec["embed"], self.ckpt, "--out", out])
        elapsed = time.perf_counter() - t0
        if code != 0:
            return f"embed exited {code}", {}
        problem = check_embeddings(out, spec["embed_keys"], self.bcfg.output_dim)
        return problem, {} if problem else {"embed_fns_per_s": len(spec["embed_keys"]) / elapsed}

    def op_search(self, rep):
        query = self.plan["queries"][rep % len(self.plan["queries"])]
        self.counts.in_search = True
        try:
            t0 = time.perf_counter()
            code, text = _quiet(["search", self.ckpt, "--query", query["path"], "--index",
                                 self.plan["index"], "--top-k", str(SEARCH_TOP_K)])
            elapsed = time.perf_counter() - t0
        finally:
            self.counts.in_search = False
        if code != 0:
            return f"search exited {code}", {}
        problem = check_search(text, query["key"])
        return problem, {} if problem else {"search_s": elapsed}

    def finish(self) -> dict:
        if not self.traced:
            return {}
        counts = self.counts
        distinct = {"encoded_distinct": len(counts.encoded),
                    "search_distinct": len(counts.search_embedded)}
        return {"trace": {
            "layers": layer_totals(self.tracer.spans), "counts": {**counts.n, **distinct},
            "batches": counts.batches, "spans": len(self.tracer.spans),
            "overhead_s": self.tracer.overhead_s, "traced_wall_s": self.traced_wall_s,
        }, "spans": self.tracer.spans}


def check_embeddings(path, keys, width) -> str | None:
    """One finite row of the model's width per input record, in input order."""
    with open(path, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    if len(rows) != len(keys):
        return f"{len(rows)} embedding rows for {len(keys)} records"
    for row, key in zip(rows, keys):
        if [row["project"], row["binary"], row["function"], row["opt_level"]] != key:
            return f"row for {key} out of order"
        vec = row["embedding"]
        if len(vec) != width or not all(map(math.isfinite, vec)):
            return f"embedding of {key} is not {width} finite floats"
    return None


def check_search(text: str, key) -> str | None:
    """The query's own record ranks in the top k with cosine >= SELF_MATCH."""
    for line in text.splitlines():
        fields = line.split("\t")
        if len(fields) == 6 and fields[2:] == key:
            score = float(fields[1])
            return None if score >= SELF_MATCH else f"self match scored {score}"
    return f"query {key} missing from the top {SEARCH_TOP_K}"


def serve(plan, bb: str):
    """Answer the parent's commands on the original stdout; all other output goes to stderr."""
    channel, sys.stdout = sys.stdout, sys.stderr
    worker = Worker(plan, bb, bool(plan["trace"]))

    def answer(doc):
        channel.write(json.dumps(doc) + "\n")
        channel.flush()

    answer({"ready": True})
    for line in sys.stdin:
        cmd = json.loads(line)
        if cmd["op"] == "finish":
            answer(worker.finish())
            return
        answer(worker.run(cmd["op"], cmd["rep"]))


def run_probe(plan) -> dict:
    corpus = mod["corpus"].load_dataset(plan["corpus"])
    mod["tokenizer"].build_vocab(corpus.records, min_freq=plan["min_freq"])
    mod["models"].load_checkpoint(os.path.join(plan["work"], "textcnn.ckpt"))
    return {"ready": time.monotonic()}


def main(argv) -> int:
    role, plan_path = argv[0], argv[1]
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    if role == "probe":
        with open(argv[2], "w", encoding="utf-8") as fh:
            json.dump(run_probe(plan), fh)
    else:
        serve(plan, argv[2])
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
