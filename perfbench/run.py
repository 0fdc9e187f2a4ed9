"""asmsim benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload short --seed 1 --seconds 40 --trace 0

Run from the root of an asmsim checkout; the package is imported from
`src/`. Each backbone lives in its own worker process, so each process's peak
RSS is that backbone's. The workers run one operation at a time, in rounds
that interleave training, embedding, searches and set-up probes, so every
metric samples the whole run rather than one stretch of it. Both workloads
are closed loops with one client: each call waits for the previous one.

With `--trace 0` the last line of standard output is a JSON object holding
every end-to-end metric; with `--trace 1` it holds the per-layer metrics of
a traced run. The lines above it are the human-readable report: the machine,
the inputs, and the metric tables. Exit code 2 means the benchmark could
not run at all.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import select
import shutil
import subprocess
import sys
import time

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
BACKBONES = ("textcnn", "lstm", "mixer")
WORKER = os.path.join(HERE, "worker.py")
RUN_LIMIT_S = 170           # a run must exit within 180 s

E2E = ([("setup_s", "s")]
       + [(f"train_pairs_per_s.{b}", "pairs/s") for b in BACKBONES]
       + [(f"train_loss.{b}", "loss") for b in BACKBONES]
       + [("eval_mrr", "mrr")]
       + [(f"embed_fns_per_s.{b}", "fns/s") for b in BACKBONES]
       + [("search_p50_s", "s"), ("search_p90_s", "s")]
       + [(f"peak_rss_mb.{b}", "MB") for b in BACKBONES])


def _per_bb(*names):
    return [(f"{n}.{b}", u) for n, u in names for b in BACKBONES]


PER_LAYER = (
    _per_bb(("models.forward_s", "s"), ("autodiff.backward_s", "s"), ("optim.adam_s", "s"),
            ("models.rows_forward", "count"), ("train.loss_s", "s"), ("train.self_s", "s"),
            ("train.batches", "count"), ("models.embed_matrix_s", "s"),
            ("models.functions_embedded", "count"))
    + [("models.unique_tokens_per_batch", "count"), ("models.rows_per_unique_token", "ratio"),
       ("corpus.make_pairs_s", "s"), ("corpus.pairs_made", "count"),
       ("models.index_embed_reuse_ratio", "ratio"), ("tokenizer.encode_s", "s"),
       ("tokenizer.instructions_encoded", "count"), ("tokenizer.encode_reuse_ratio", "ratio"),
       ("corpus.load_dataset_s", "s"), ("corpus.records_loaded", "count"),
       ("models.load_checkpoint_s", "s"), ("evaluate.cosine_matrix_s", "s"),
       ("cli.search_self_s", "s"), ("cli.embed_self_s", "s"), ("manifest.write_s", "s"),
       ("manifest.bytes_hashed", "bytes"), ("models.save_checkpoint_s", "s"),
       ("evaluate.evaluate_pool_s", "s"), ("evaluate.rank_self_s", "s"),
       ("tokenizer.build_vocab_s", "s"), ("tokenizer.vocab_size", "count"),
       ("trace.spans", "count"), ("trace.overhead_pct", "%")])

# BLAS threads per worker. With two threads on the 2-core reference machine,
# one identical textcnn step varied from 3.9 s to 5.3 s within one process;
# with one thread it stayed within 6.0-7.0 s.
BLAS_THREADS = 1

# Per operation: (minimum, maximum) count. Rounds repeat until --seconds have
# passed, then only operations short of their minimum run; traced runs do the
# minimum. `round` is the order of one round. The lstm, whose time varies
# most from call to call, trains twice per round on short, and its short
# embed calls (under half a second) run twice per round. A training slice is
# one train() call over (batch pairs, whole families, lone records, negatives
# per record); every slice makes at least two batches, so that a call runs the
# update more than once, and all but long-wide's lstm end in a short one.
# Backbones in `longest` train on the longest family and embed the longest
# function, past 512 instructions on long-wide.
WORKLOADS = {
    "short": {
        "shape": "stock", "min_freq": 32, "eval_pool": 32, "index_families": None,
        "train": {"textcnn": (384, 16, 1, 7), "lstm": (32, 5, 3, 1), "mixer": (8, 1, 3, 1)},
        "embed_n": {"textcnn": 300, "lstm": 48, "mixer": 8},
        "longest": (),
        "reps": {"train.textcnn": (2, 3), "train.lstm": (4, 5), "train.mixer": (2, 3),
                 "embed.textcnn": (2, 3), "embed.lstm": (4, 6), "embed.mixer": (2, 3),
                 "search": (6, 12), "probe": (5, 7)},
        "round": ("train.textcnn", "search", "probe", "train.lstm", "embed.textcnn",
                  "embed.lstm", "search", "probe", "train.mixer", "probe", "train.lstm",
                  "embed.lstm", "search", "probe", "embed.mixer"),
    },
    "long-wide": {
        "shape": "long-wide", "min_freq": 1, "eval_pool": 8, "index_families": 8,
        "train": {"textcnn": (24, 3, 12, 1), "lstm": (3, 2, 0, 0), "mixer": (4, 1, 1, 1)},
        "train_band": {"textcnn": (0.25, 0.75), "lstm": (0.1, 0.35)},
        "embed_n": {"textcnn": None, "lstm": 6, "mixer": 8},
        "longest": ("mixer",),
        "reps": {"train.textcnn": (2, 3), "train.lstm": (2, 3), "train.mixer": (2, 3),
                 "embed.textcnn": (2, 4), "embed.lstm": (4, 6), "embed.mixer": (2, 3),
                 "search": (5, 15), "probe": (5, 7)},
        "round": ("train.textcnn", "search", "probe", "embed.textcnn", "embed.lstm",
                  "train.lstm", "search", "probe", "embed.lstm", "train.mixer", "search",
                  "probe", "embed.mixer"),
    },
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


# ------------------------------------------------------------------ inputs

def build_inputs(name: str, seed: int, work: str, trace: int):
    """Write the run's inputs under `work`; return the worker plan and a description."""
    # imported here: asmsim is importable only once main() has found src/
    import numpy as np
    import inputs
    from asmsim import build_vocab, save_dataset

    wl = WORKLOADS[name]
    records = (inputs.stock_records(seed) if wl["shape"] == "stock"
               else inputs.long_wide_records(seed))
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    fams = inputs.families(records)
    corpus_path = os.path.join(work, "corpus.jsonl")
    save_dataset(records, corpus_path)
    vocab = build_vocab(records, min_freq=wl["min_freq"])

    def key(rec):
        return [rec.project, rec.binary, rec.function_name, rec.opt_level]

    if wl["index_families"] is None:
        index, index_path = records, corpus_path
    else:
        picks = inputs.stratified([inputs.mean_length(records, f) for f in fams],
                                  wl["index_families"])
        index = [records[i] for f in sorted(picks) for i in fams[f]]
        index_path = os.path.join(work, "index.jsonl")
        save_dataset(index, index_path)
    n_queries = wl["reps"]["search"][1]
    queries = []
    for q, i in enumerate(rng.choice(len(index), size=n_queries, replace=n_queries > len(index))):
        path = os.path.join(work, f"query{q}.jsonl")
        save_dataset([index[int(i)]], path)
        queries.append({"path": path, "key": key(index[int(i)])})

    plan = {"workload": name, "seed": seed, "trace": trace, "work": work,
            "corpus": corpus_path, "index": index_path, "queries": queries,
            "min_freq": wl["min_freq"], "train_seed": inputs.TRAIN_SEED,
            "backbones": {}}
    described = {"corpus": inputs.length_profile(records),
                 "vocab": {"min_freq_1": (vocab if wl["min_freq"] == 1 else
                                          build_vocab(records, min_freq=1)).size,
                           f"min_freq_{wl['min_freq']}": vocab.size},
                 "index": inputs.reach(index), "backbones": {}}
    longest = inputs.longest_family(records, fams)
    for bb in BACKBONES:
        batch, n_full, n_single, negatives = wl["train"][bb]
        n_slices = wl["reps"][f"train.{bb}"][1]
        band = wl.get("train_band", {}).get(bb, (0.0, 1.0))
        include = longest if bb in wl["longest"] else None
        slices = [inputs.training_slice(records, fams, n_full, n_single, rng, band, include)
                  for _ in range(n_slices)]
        expected = [inputs.expected_pairs([records[i] for i in s], negatives) for s in slices]
        if min(expected) <= batch:
            raise ValueError(f"{name}: a {bb} slice makes a single batch")
        if wl["embed_n"][bb] is None:
            embed, embed_path = index, index_path
        else:
            lengths = [len(r.instructions) for r in records]
            n = wl["embed_n"][bb]
            picks = (inputs.stratified(lengths, n - 1) + [int(np.argmax(lengths))]
                     if bb in wl["longest"] else inputs.stratified(lengths, n))
            embed = [records[i] for i in picks]
            embed_path = os.path.join(work, f"embed_{bb}.jsonl")
            save_dataset(embed, embed_path)
        plan["backbones"][bb] = {
            "batch": batch, "negatives": negatives, "slices": slices,
            "expected_pairs": expected,
            "embed": embed_path, "embed_keys": [key(r) for r in embed],
            "eval_pool": wl["eval_pool"],
        }
        described["backbones"][bb] = {
            "batch_pairs": batch, "pairs_per_call": expected,
            "train": inputs.reach([records[i] for i in sorted(set().union(*slices))]),
            "embed": inputs.reach(embed),
        }
    return plan, described


# ------------------------------------------------------------------ processes

def machine() -> dict:
    """The machine, from read-only sources."""
    import numpy as np

    def first(path, prefix):
        try:
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith(prefix):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return None

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # show_config's layout differs across numpy versions
        blas = "unknown"
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": first("/proc/cpuinfo", "model name")
            or platform.processor(), "mem_total": first("/proc/meminfo", "MemTotal"),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy_version, "blas": blas, "blas_threads": BLAS_THREADS}


def _env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def reap(proc, deadline: float):
    """Wait for a process, killing it at the deadline; return (problem or None, peak RSS MB)."""
    killed = False
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline and not killed:
            proc.kill()
            killed = True
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if killed:
        problem = "killed at the run's time limit"
    elif proc.returncode < 0:
        problem = f"killed by signal {-proc.returncode}"
    elif proc.returncode > 0:
        problem = f"exited {proc.returncode}"
    else:
        problem = None
    return problem, usage.ru_maxrss / 1024.0


class WorkerProcess:
    """The parent's end of one backbone's worker process."""

    def __init__(self, bb: str, plan_path: str):
        self.bb = bb
        self.proc = subprocess.Popen([sys.executable, WORKER, "backbone", plan_path, bb],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=_env(), cwd=ROOT, text=True)
        self.alive = True

    def ask(self, cmd, deadline: float):
        """Send a command (None: only read) and return the answer, or None if the
        worker died or missed the deadline."""
        if not self.alive:
            return None
        try:
            if cmd is not None:
                self.proc.stdin.write(json.dumps(cmd) + "\n")
                self.proc.stdin.flush()
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        max(0.0, deadline - time.monotonic()))
            line = self.proc.stdout.readline() if ready else ""
        except OSError:
            line = ""
        if not line:
            self.alive = False
            self.proc.kill()
            return None
        return json.loads(line)

    def close(self, deadline: float):
        """Collect the worker's trace data and peak RSS; return (answer, problem, RSS MB)."""
        answer = self.ask({"op": "finish"}, deadline)
        problem, rss_mb = reap(self.proc, deadline)
        return answer, problem, rss_mb


# ------------------------------------------------------------------ metrics

def end_to_end(results, probes) -> dict:
    m = {}
    if probes:
        m["setup_s"] = stats.median(probes)
    for bb, r in results.items():
        s = r["samples"]
        for key, name in (("train_pairs_per_s", f"train_pairs_per_s.{bb}"),
                          ("train_loss", f"train_loss.{bb}"), ("eval_mrr", "eval_mrr"),
                          ("embed_fns_per_s", f"embed_fns_per_s.{bb}")):
            if s.get(key):
                m[name] = stats.median(s[key])
        if s.get("search_s"):
            m["search_p50_s"] = stats.percentile(s["search_s"], 50)
            m["search_p90_s"] = stats.percentile(s["search_s"], 90)
        if r.get("peak_rss_mb"):
            m[f"peak_rss_mb.{bb}"] = r["peak_rss_mb"]
    return m


def full_batches(results) -> list:
    """(pairs, grid rows, unique token ids) of the textcnn's full training batches."""
    r = results.get("textcnn", {})
    return [b for b in r.get("trace", {}).get("batches", []) if b[0] == r.get("batch")]


def per_layer(results) -> dict:
    m = {}

    def layer(r, name, key="total_s"):
        return r["trace"]["layers"].get(name, {}).get(key, 0.0) if r else 0.0

    traces = {bb: r for bb, r in results.items() if "trace" in r}
    total = lambda name, key="total_s": sum(layer(r, name, key) for r in traces.values())  # noqa: E731
    count = lambda name: sum(r["trace"]["counts"].get(name, 0) for r in traces.values())  # noqa: E731
    for bb in BACKBONES:
        r = traces.get(bb)
        c = r["trace"]["counts"] if r else {}
        m[f"models.forward_s.{bb}"] = layer(r, "models.forward")
        m[f"autodiff.backward_s.{bb}"] = layer(r, "autodiff.backward")
        m[f"optim.adam_s.{bb}"] = layer(r, "optim.adam")
        m[f"models.rows_forward.{bb}"] = c.get("rows_forward", 0)
        m[f"train.loss_s.{bb}"] = layer(r, "train.loss")
        m[f"train.self_s.{bb}"] = layer(r, "train.train", "self_s")
        m[f"train.batches.{bb}"] = c.get("batches", 0)
        m[f"models.embed_matrix_s.{bb}"] = layer(r, "models.embed_matrix")
        m[f"models.functions_embedded.{bb}"] = c.get("functions_embedded", 0)
    batches = full_batches(results)
    m["models.unique_tokens_per_batch"] = (stats.median([u for _, _, u in batches])
                                           if batches else 0)
    m["models.rows_per_unique_token"] = (stats.median([rows / u for _, rows, u in batches])
                                         if batches else 0.0)
    m["corpus.make_pairs_s"] = total("corpus.make_pairs")
    m["corpus.pairs_made"] = count("pairs_made")
    embedded = count("search_embedded")
    m["models.index_embed_reuse_ratio"] = count("search_distinct") / embedded if embedded else 0.0
    m["tokenizer.encode_s"] = total("tokenizer.encode")
    m["tokenizer.instructions_encoded"] = count("instructions_encoded")
    calls = count("encode_calls")
    m["tokenizer.encode_reuse_ratio"] = count("encoded_distinct") / calls if calls else 0.0
    m["corpus.load_dataset_s"] = total("corpus.load_dataset")
    m["corpus.records_loaded"] = count("records_loaded")
    m["models.load_checkpoint_s"] = total("models.load_checkpoint")
    m["evaluate.cosine_matrix_s"] = total("evaluate.cosine_matrix")
    m["cli.search_self_s"] = total("cli.search", "self_s")
    m["cli.embed_self_s"] = total("cli.embed", "self_s")
    m["manifest.write_s"] = total("manifest.write")
    m["manifest.bytes_hashed"] = count("bytes_hashed")
    m["models.save_checkpoint_s"] = total("models.save_checkpoint")
    m["evaluate.evaluate_pool_s"] = total("evaluate.evaluate_pool")
    m["evaluate.rank_self_s"] = total("evaluate.evaluate_pool", "self_s")
    builds = [layer(r, "tokenizer.build_vocab") for r in traces.values()]
    m["tokenizer.build_vocab_s"] = stats.median(builds) if builds else 0.0
    m["tokenizer.vocab_size"] = max((r["trace"]["counts"].get("vocab_size", 0)
                                     for r in traces.values()), default=0)
    m["trace.spans"] = sum(r["trace"]["spans"] for r in traces.values())
    wall = sum(r["trace"]["traced_wall_s"] for r in traces.values())
    m["trace.overhead_pct"] = (100.0 * sum(r["trace"]["overhead_s"] for r in traces.values())
                               / wall if wall else 0.0)
    return m


def bases(results) -> dict:
    """The counts each per-layer ratio is taken over."""
    traces = [r["trace"] for r in results.values() if "trace" in r]

    def count(name):
        return sum(t["counts"].get(name, 0) for t in traces)

    n_batches = len(full_batches(results))
    return {
        "models.unique_tokens_per_batch": f"median over {n_batches} full textcnn "
                                          "training batches",
        "models.rows_per_unique_token": f"median over {n_batches} full textcnn training "
                                        "batches of grid rows / unique token ids",
        "models.index_embed_reuse_ratio": f"{count('search_distinct')} distinct / "
                                          f"{count('search_embedded')} functions embedded "
                                          "by searches",
        "tokenizer.encode_reuse_ratio": f"{count('encoded_distinct')} distinct functions / "
                                        f"{count('encode_calls')} encode calls",
        "trace.overhead_pct": "tracing bookkeeping seconds / wall seconds of the traced phases",
    }


def table(title, metrics, units, notes=None) -> str:
    lines = [title]
    for name, unit in units:
        if name in metrics:
            note = f"  ({notes[name]})" if notes and name in notes else ""
            lines.append(f"  {name:<36} {metrics[name]:>14.6g} {unit}{note}")
    return "\n".join(lines)


# ------------------------------------------------------------------ main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    if args.seconds < 1:
        return fail("--seconds must be >= 1")
    if not os.path.isfile(os.path.join(SRC, "asmsim", "__init__.py")):
        return fail(f"no asmsim package under {SRC}; run from the root of an asmsim checkout")
    sys.path.insert(0, SRC)
    stats.check_metric_names([n for n, _ in E2E + PER_LAYER])

    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        return _run(args, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)


class Schedule:
    """Runs the operations of one run and keeps their counts, samples and failures."""

    def __init__(self, wl, plan_path, traced: bool, deadline: float):
        self.wl, self.plan_path, self.traced, self.deadline = wl, plan_path, traced, deadline
        self.workers = {bb: WorkerProcess(bb, plan_path) for bb in BACKBONES}
        self.done: dict[str, int] = {}
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.samples = {bb: {} for bb in BACKBONES}
        self.probes: list[float] = []
        self.op_s: dict[str, float] = {}        # wall seconds per operation kind

    def _fail(self, what: str, problem: str):
        self.failed += 1
        self.errors.append(f"{what}: {problem}")

    def start(self):
        start = time.monotonic()
        for bb, w in self.workers.items():
            self.attempted += 1
            if w.ask(None, self.deadline) is None:
                self._fail(f"{bb} worker", "died during set-up")
        self.op_s["start"] = time.monotonic() - start

    @staticmethod
    def key(bb, op: str) -> str:
        return op if op in ("search", "probe") else f"{op}.{bb}"

    def run(self, bb: str, op: str):
        key = self.key(bb, op)
        start = time.monotonic()
        try:
            self._run(bb, op, key)
        finally:
            self.op_s[key] = self.op_s.get(key, 0.0) + time.monotonic() - start

    def _run(self, bb: str, op: str, key: str):
        rep = self.done.get(key, 0)
        self.done[key] = rep + 1
        self.attempted += 1
        if op == "probe":
            return self._probe(rep)
        answer = self.workers[bb].ask({"op": op, "rep": rep}, self.deadline)
        if answer is None:
            return self._fail(f"{op}#{rep} on {bb}", "worker died or timed out")
        if answer["problem"]:
            return self._fail(f"{op}#{rep} on {bb}", answer["problem"])
        for name, value in answer["samples"].items():
            self.samples[bb].setdefault(name, []).append(value)

    def _probe(self, rep: int):
        out = os.path.join(os.path.dirname(self.plan_path), f"probe{rep}.json")
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, WORKER, "probe", self.plan_path, out],
                                stdout=sys.stderr, env=_env(), cwd=ROOT)
        problem, _ = reap(proc, self.deadline)
        if problem or not os.path.isfile(out):
            return self._fail(f"set-up probe #{rep}", problem or "wrote no result")
        with open(out, encoding="utf-8") as fh:
            self.probes.append(json.load(fh)["ready"] - start)

    def due(self, key: str, over: bool) -> bool:
        lo, hi = self.wl["reps"][key]
        n = self.done.get(key, 0)
        return n < hi and (n < lo or not over)

    def rounds(self, seconds: int):
        """Each backbone first trains (rep 0 also makes its checkpoint) and
        embeds once; then rounds interleave every operation until `seconds`
        have passed since the start and each has reached its minimum."""
        start = time.monotonic()
        for bb in BACKBONES:
            for op in ("train", "save", "embed"):
                self.run(bb, op)
        self.run("textcnn", "eval")
        while time.monotonic() < self.deadline:
            ran = False
            for key in self.wl["round"]:
                op, _, bb = key.partition(".")
                if op == "probe" and self.traced:
                    continue
                over = self.traced or time.monotonic() - start >= seconds
                if self.due(key, over) and time.monotonic() < self.deadline:
                    self.run(bb or "textcnn", op)       # searches use the textcnn index
                    ran = True
            if not ran:
                break

    def close(self) -> dict:
        results = {}
        for bb, w in self.workers.items():
            answer, problem, rss_mb = w.close(self.deadline)
            if problem or answer is None:
                self._fail(f"{bb} worker", problem or "gave no final answer")
            results[bb] = {"samples": self.samples[bb], "peak_rss_mb": rss_mb,
                           "batch": self.wl["train"][bb][0], **(answer or {})}
        return results


def _run(args, work, deadline) -> int:
    plan, described = build_inputs(args.workload, args.seed, work, args.trace)
    plan_path = os.path.join(work, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    sched = Schedule(WORKLOADS[args.workload], plan_path, bool(args.trace), deadline)
    try:
        sched.start()
        sched.rounds(args.seconds)
    finally:
        results = sched.close()

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print("machine " + json.dumps(machine(), sort_keys=True))
    print("inputs " + json.dumps(described, sort_keys=True))
    print("op_seconds " + json.dumps({k: round(v, 2) for k, v in sched.op_s.items()}))
    e2e = end_to_end(results, sched.probes)
    notes = {"setup_s": f"median of {len(sched.probes)}"}
    for bb, s in sched.samples.items():
        for key in ("train_pairs_per_s", "embed_fns_per_s"):
            notes[f"{key}.{bb}"] = f"median of {len(s.get(key, []))}"
    n = len(sched.samples["textcnn"].get("search_s", []))
    tail = stats.tail_percentile(n)
    notes["search_p50_s"] = notes["search_p90_s"] = (
        f"of {n} calls; highest percentile with >= 10 calls beyond it: "
        f"{'p%g' % tail if tail else 'none'}")
    title = "end-to-end" if not args.trace else "traced end-to-end (compare with an untraced run)"
    print(table(title, e2e, E2E, notes))
    if args.trace:
        print("traced_end_to_end " + json.dumps(e2e, sort_keys=True))
        layers = per_layer(results)
        print(table("per-layer", layers, PER_LAYER, bases(results)))
        print("batches " + json.dumps({bb: {"fields": ["pairs", "grid_rows", "unique_tokens"],
                                            "batches": r.get("trace", {}).get("batches", [])}
                                       for bb, r in results.items()}))
        with open(os.path.join(WORK, f"trace-{args.workload}-{args.seed}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({bb: {"run_id": f"{args.workload}-{args.seed}-{bb}",
                            "fields": ["name", "start", "end", "parent", "op"],
                            "spans": r.get("spans", [])} for bb, r in results.items()}, fh)
        metrics, units = layers, PER_LAYER
    else:
        metrics, units = e2e, E2E
    for e in sched.errors[:10]:
        print(f"failed: {e}", file=sys.stderr)
    missing = [n for n, _ in units if n not in metrics]
    if missing:
        print(f"missing metrics: {', '.join(missing)}", file=sys.stderr)
    print(json.dumps({
        "correct": sched.failed == 0 and not missing,
        "attempted": sched.attempted, "failed": sched.failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units if n in metrics},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
