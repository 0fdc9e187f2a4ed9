"""The benchmark's trace hooks still find every asmsim name they wrap, and its
own helper tests pass."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The hooks replace module attributes, so they run in a fresh interpreter.
INSTALL = """
import sys
sys.path.insert(0, sys.argv[1])
import worker
for name in sys.argv[2:]:
    module, attr = name.rsplit(".", 1)
    delattr(worker.mod[module], attr)
worker.install(worker.Tracer(), worker.Counts())
print("installed")
"""


def _install(*removed):
    return subprocess.run([sys.executable, "-c", INSTALL, os.path.join(ROOT, "perfbench"),
                           *removed], capture_output=True, text=True, timeout=120)


def test_perfbench_trace_hooks_install():
    proc = _install()
    assert proc.returncode == 0 and proc.stdout.strip() == "installed", proc.stderr


def test_perfbench_trace_hooks_fail_on_a_missing_name():
    """The install check has teeth: a hooked name gone from asmsim stops it."""
    proc = _install("cli.encode_function")
    assert proc.returncode != 0 and "installed" not in proc.stdout
    assert "AttributeError" in proc.stderr and "encode_function" in proc.stderr


# One tiny train() through the installed hooks, as a traced benchmark run
# calls it: a change in how train() calls a hooked name (the loss's labels
# passed by keyword, which the loss hook reads as its third argument) fails
# here and not only in a traced run.
TRAIN = """
import sys
sys.path.insert(0, sys.argv[1])
import worker
from asmsim.corpus import CorpusIndex
from asmsim.models import BackboneConfig
from asmsim.synthetic import SynthConfig, generate
from asmsim.tokenizer import build_vocab
from asmsim.train import TrainConfig
tracer, counts = worker.Tracer(), worker.Counts()
worker.install(tracer, counts)
tracer.enabled = True
corpus = CorpusIndex(generate(SynthConfig(n_families=3, seed=0)))
vocab = build_vocab(corpus.records, min_freq=1)
cfg = BackboneConfig("textcnn", vocab.size, embed_dim=4, output_dim=6, conv_widths=(3, 2),
                     conv_channels=4)
result = worker.mod["train"].train(corpus, vocab, cfg,
                                   TrainConfig(seed=0, batch_size=16, negatives=2))
print(result.n_batches, counts.n["batches"], len(counts.batches),
      sum(pairs for pairs, _, _ in counts.batches), counts.n["pairs_made"])
"""


def test_perfbench_hooks_trace_a_training_run():
    """Every batch of a training run reaches the loss hook with its pairs."""
    proc = subprocess.run([sys.executable, "-c", TRAIN, os.path.join(ROOT, "perfbench")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-4000:]
    batches, counted, hooked, pairs, made = map(int, proc.stdout.split())
    assert batches > 1 and counted == hooked == batches and pairs == made


def test_perfbench_helper_tests_pass():
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "perfbench/test_perfbench.py"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
