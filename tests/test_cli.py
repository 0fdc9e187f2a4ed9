"""End-to-end command behavior: artifacts, exit codes, warnings."""

import ast
import builtins
import collections
import dataclasses
import errno
import hashlib
import importlib
import json
import os
import shutil
import struct

import numpy as np
import pytest

import asmsim.cli as cli
from asmsim import embcache, manifest
from asmsim.cli import main, read_config_file
from asmsim.corpus import load_dataset, save_dataset
from asmsim.models import load_checkpoint
from asmsim.synthetic import SynthConfig, generate
from asmsim.tokenizer import UNK_ID, Vocabulary, encode_function, split_instruction


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One small trained pipeline shared by the read-only command tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data.jsonl"
    save_dataset(generate(SynthConfig(n_families=12, seed=3)), data)
    assert main(["vocab", str(data), "--out", str(root / "vocab.txt"),
                 "--min-freq", "4"]) == 0
    assert main(["train", str(data), str(root / "vocab.txt"),
                 "--out", str(root / "model.ckpt"), "--seed", "5",
                 "--epochs", "1", "--batch-size", "64", "--negatives", "2"]) == 0
    return root


# ------------------------------------------------------------------ vocab

def test_vocab_writes_header_and_manifest(workdir):
    lines = (workdir / "vocab.txt").read_text().splitlines()
    assert lines[0] == ('# asmsim vocab v2 pad=<PAD> unk=<UNK> min_freq=4 '
                        'delimiters=" \\t+-*:,;[]()"')
    assert lines[1].startswith("# sha256=")
    doc = json.loads((workdir / "vocab.txt.manifest.json").read_text())
    assert doc["command"] == "vocab"
    assert doc["config"]["min_freq"] == 4
    assert "sha256" in doc["inputs"]["dataset"]


def test_vocab_lower_threshold_is_strictly_larger(workdir, tmp_path):
    data = workdir / "data.jsonl"
    out1 = tmp_path / "v1.txt"
    out32 = tmp_path / "v32.txt"
    assert main(["vocab", str(data), "--out", str(out1), "--min-freq", "1"]) == 0
    assert main(["vocab", str(data), "--out", str(out32), "--min-freq", "32"]) == 0
    assert Vocabulary.load(out1).size > Vocabulary.load(out32).size


def test_vocab_missing_input_names_path(tmp_path, capsys):
    missing = tmp_path / "nope.jsonl"
    code = main(["vocab", str(missing), "--out", str(tmp_path / "v.txt")])
    assert code == 2
    assert str(missing) in capsys.readouterr().err


@pytest.mark.parametrize("option, message", [(["--min-freq", "0"], "frequency threshold"),
                                             (["--delimiters", ""], "delimiter set")])
def test_vocab_bad_option_value_is_data_error(tmp_path, capsys, option, message):
    data = tmp_path / "data.jsonl"
    save_dataset(generate(SynthConfig(n_families=2, seed=3)), data)
    out = tmp_path / "v.txt"
    assert main(["vocab", str(data), "--out", str(out)] + option) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err
    assert not out.exists()


def test_vocab_delimiters_survive_train_and_embed(tmp_path):
    records = [dataclasses.replace(r, instructions=tuple(
                   ".".join(split_instruction(ins)) for ins in r.instructions))
               for r in generate(SynthConfig(n_families=4, seed=3))]
    data, vocab_path, ckpt = tmp_path / "dot.jsonl", tmp_path / "vocab.txt", tmp_path / "m.ckpt"
    save_dataset(records, data)
    assert main(["vocab", str(data), "--out", str(vocab_path), "--min-freq", "1",
                 "--delimiters", "."]) == 0
    assert main(["train", str(data), str(vocab_path), "--out", str(ckpt), "--seed", "1",
                 "--epochs", "1", "--batch-size", "64", "--negatives", "1"]) == 0
    assert main(["embed", str(data), str(ckpt), "--out", str(tmp_path / "e.jsonl")]) == 0
    _, vocab = load_checkpoint(ckpt)
    assert vocab.delimiters == "."
    assert vocab.file_bytes() == vocab_path.read_bytes()
    assert (encode_function(vocab, records[0]).token_ids[:, 0] != UNK_ID).all()


# ------------------------------------------------------------------ train

def test_train_writes_checkpoint_loss_csv_and_manifest(workdir):
    ckpt = workdir / "model.ckpt"
    backbone, vocab = load_checkpoint(ckpt)
    assert backbone.cfg.variant == "textcnn"
    assert vocab.size > 2

    csv_lines = (ckpt.parent / "model.ckpt.loss.csv").read_text().splitlines()
    assert csv_lines[0] == "batch_index,loss"
    losses = [float(line.split(",")[1]) for line in csv_lines[1:]]
    assert len(losses) >= 2 and all(np.isfinite(losses))

    doc = json.loads((ckpt.parent / "model.ckpt.manifest.json").read_text())
    assert doc["seed"] == 5
    assert doc["config"]["backbone"] == "textcnn"
    assert set(doc["inputs"]) == {"dataset", "vocab"}


def test_train_loss_trend_decreases(tmp_path):
    data = tmp_path / "data.jsonl"
    save_dataset(generate(SynthConfig(n_families=30, seed=11)), data)
    assert main(["vocab", str(data), "--out", str(tmp_path / "v.txt"),
                 "--min-freq", "8"]) == 0
    assert main(["train", str(data), str(tmp_path / "v.txt"),
                 "--out", str(tmp_path / "m.ckpt"), "--seed", "13",
                 "--batch-size", "48", "--negatives", "4"]) == 0
    lines = (tmp_path / "m.ckpt.loss.csv").read_text().splitlines()[1:]
    losses = [float(line.split(",")[1]) for line in lines]
    assert len(losses) >= 8
    half = len(losses) // 2
    assert np.mean(losses[half:]) < np.mean(losses[:half])


def test_train_epochs_zero_equals_seeded_init(workdir, tmp_path):
    out = tmp_path / "init.ckpt"
    args = ["train", str(workdir / "data.jsonl"), str(workdir / "vocab.txt"),
            "--out", str(out), "--seed", "5", "--epochs", "0"]
    assert main(args) == 0
    first = out.read_bytes()
    assert main(args) == 0
    assert out.read_bytes() == first
    csv_text = (tmp_path / "init.ckpt.loss.csv").read_text()
    assert csv_text == "batch_index,loss\n"
    # an actually-trained run from the same seed differs
    trained = (workdir / "model.ckpt").read_bytes()
    assert first != trained


def test_train_vocab_dataset_mismatch_warns(tmp_path, capsys):
    data_a = tmp_path / "a.jsonl"
    data_b = tmp_path / "b.jsonl"
    save_dataset(generate(SynthConfig(n_families=6, seed=1)), data_a)
    save_dataset(generate(SynthConfig(n_families=6, seed=2)), data_b)
    assert main(["vocab", str(data_a), "--out", str(tmp_path / "v.txt"),
                 "--min-freq", "2"]) == 0
    capsys.readouterr()
    assert main(["train", str(data_b), str(tmp_path / "v.txt"),
                 "--out", str(tmp_path / "m.ckpt"), "--seed", "1",
                 "--epochs", "0"]) == 0
    assert "different dataset" in capsys.readouterr().err


def test_train_config_file_and_flag_precedence(workdir, tmp_path, capsys):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs = 1\nbatch_size = 64  # flags beat this file\n")
    out = tmp_path / "m.ckpt"
    assert main(["train", str(workdir / "data.jsonl"), str(workdir / "vocab.txt"),
                 "--out", str(out), "--seed", "9", "--config", str(cfg),
                 "--epochs", "0"]) == 0
    assert "0 batches" in capsys.readouterr().out  # flag --epochs 0 won

    bad = tmp_path / "bad.cfg"
    bad.write_text("space_heater = on\n")
    code = main(["train", str(workdir / "data.jsonl"), str(workdir / "vocab.txt"),
                 "--out", str(out), "--seed", "9", "--config", str(bad)])
    assert code == 2
    assert "unknown key" in capsys.readouterr().err
    for lr in ("nan", "inf"):                       # rejected before any batch runs
        assert main(["train", str(workdir / "data.jsonl"), str(workdir / "vocab.txt"),
                     "--out", str(out), "--seed", "9", "--learning-rate", lr]) == 2
        assert "learning_rate must be positive and finite" in capsys.readouterr().err


def test_config_file_rejects_a_repeated_key(workdir, tmp_path, capsys):
    """A key set twice is a data error naming both lines, not a silent last-wins."""
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs = 0\n# later\nmargin = 0.5\nepochs = 3\n")
    assert main(["train", str(workdir / "data.jsonl"), str(workdir / "vocab.txt"),
                 "--out", str(tmp_path / "m.ckpt"), "--seed", "9",
                 "--config", str(cfg)]) == 2
    _one_error_line(capsys, f"{cfg}:4: repeated key 'epochs' (first set on line 1)")
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_negative_seed_is_a_data_error(workdir, tmp_path, capsys, command):
    where = _inputs(workdir, tmp_path / "run")
    argv = _argv(command, where)
    argv[argv.index("--seed") + 1] = "-1"
    assert main(argv) == 2
    _one_error_line(capsys, "seed must be >= 0, got -1")
    assert not [p for p in where.iterdir() if p.name.startswith("out")]


@pytest.mark.parametrize("flags, writes", [
    ([], lambda batches: 1),                      # the last epoch's state is the final one
    (["--epochs", "2"], lambda batches: 2),       # one per epoch end
    (["--epochs", "0"], lambda batches: 1),       # the seeded init, at the end
    (["--checkpoint-every", "1"], lambda batches: batches),   # with the epoch's write
], ids=["default", "epochs-2", "epochs-0", "every-1"])
def test_train_writes_each_state_once(workdir, tmp_path, capsys, monkeypatch, flags, writes):
    """Each trained state is written once, however many callbacks reach it."""
    where = _inputs(workdir, tmp_path / "run")
    real_save, written = cli.save_checkpoint, []

    def spy_save(*args):
        written.append(real_save(*args))
        return written[-1]

    monkeypatch.setattr(cli, "save_checkpoint", spy_save)
    assert main(_argv("train", where) + flags) == 0
    batches = int(capsys.readouterr().out.split(" for ")[1].split()[0])
    assert len(written) == writes(batches)
    assert len(set(written)) == len(written)
    doc = json.loads((where / "out.ckpt.manifest.json").read_text())
    assert doc["outputs"]["artifact"]["sha256"] == written[-1]
    assert hashlib.sha256((where / "out.ckpt").read_bytes()).hexdigest() == written[-1]


def test_read_config_file_parses_values(tmp_path):
    cfg = tmp_path / "t.cfg"
    cfg.write_text("# comment\nlearning_rate = 0.01\n\nmargin=0.8\nepochs = 3\n")
    assert read_config_file(cfg) == {"learning_rate": 0.01, "margin": 0.8,
                                     "epochs": 3}


# ------------------------------------------------------------------ eval

def test_eval_report_has_six_pairs_and_is_deterministic(workdir, tmp_path):
    args = ["eval", str(workdir / "data.jsonl"), str(workdir / "model.ckpt"),
            "--out", str(tmp_path / "rep"), "--seed", "7", "--pool-size", "3"]
    assert main(args) == 0
    first = (tmp_path / "rep.json").read_bytes()
    payload = json.loads(first)
    pair_keys = {"O0,O3", "O1,O3", "O2,O3", "O0,Os", "O1,Os", "O2,Os"}
    assert set(payload["mrr"]) == pair_keys | {"average"}
    assert len(payload["checkpoint_sha256"]) == 64
    table = (tmp_path / "rep.txt").read_text()
    assert "MRR" in table and "O0,O3" in table

    assert main(args) == 0
    assert (tmp_path / "rep.json").read_bytes() == first


def test_eval_pool_of_one_is_perfect(workdir, tmp_path):
    assert main(["eval", str(workdir / "data.jsonl"), str(workdir / "model.ckpt"),
                 "--out", str(tmp_path / "rep"), "--seed", "1",
                 "--pool-size", "1", "--opt-pairs", "O0,O3"]) == 0
    payload = json.loads((tmp_path / "rep.json").read_text())
    assert payload["mrr"]["average"] == 1.0


def test_eval_bad_opt_pair_is_data_error(workdir, tmp_path, capsys):
    """A bad or repeated optimization pair or recall cutoff, or a bad pool size,
    is a one-line data error."""
    for option, message in ((["--opt-pairs", "O0,O9"], "O0,O9"),
                            (["--opt-pairs", "O0,O3", "O0,O3", "O1,O3"],
                             "duplicate optimization pair 'O0,O3'"),
                            (["--ks", "0"], "recall cutoffs"),
                            (["--ks", "1", "1"], "recall cutoffs must be distinct"),
                            (["--pool-size", "0"], "pool size must be >= 1"),
                            (["--pool-size", "-3"], "pool size must be >= 1")):
        code = main(["eval", str(workdir / "data.jsonl"), str(workdir / "model.ckpt"),
                     "--out", str(tmp_path / "rep"), "--seed", "1"] + option)
        assert code == 2, option
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "Traceback" not in err


# ------------------------------------------------------------------ embed

def test_embed_writes_one_vector_per_record(workdir, tmp_path):
    out = tmp_path / "emb.jsonl"
    assert main(["embed", str(workdir / "data.jsonl"),
                 str(workdir / "model.ckpt"), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 12 * 3
    row = json.loads(lines[0])
    assert set(row) == {"project", "binary", "function", "opt_level", "embedding"}
    assert len(row["embedding"]) == 192
    assert all(np.isfinite(row["embedding"]))
    # every written float is the float32 embedding widened exactly
    backbone, vocab = load_checkpoint(workdir / "model.ckpt")
    cfg = backbone.cfg
    matrix = backbone.embed_matrix([
        encode_function(vocab, r, k_tokens=cfg.tokens_per_instruction,
                        max_positions=cfg.max_positions)
        for r in load_dataset(workdir / "data.jsonl").records])
    assert matrix.dtype == np.float32
    written = np.array([json.loads(line)["embedding"] for line in lines])
    assert written.dtype == np.float64
    np.testing.assert_array_equal(written, matrix.astype(np.float64))


# ------------------------------------------------------------------ search

def test_search_self_query_ranks_first(workdir, tmp_path, capsys):
    query = tmp_path / "q.jsonl"
    with open(workdir / "data.jsonl") as fh, open(query, "w") as out:
        out.write(fh.readline())
    assert main(["search", str(workdir / "model.ckpt"), "--query", str(query),
                 "--index", str(workdir / "data.jsonl"), "--top-k", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    rank, score, project, binary, name, level = lines[0].split("\t")
    assert rank == "1" and float(score) == pytest.approx(1.0, abs=1e-5)
    assert (name, level) == ("fn_0000", "O0")


def test_search_topk_beyond_index_returns_all(workdir, tmp_path, capsys):
    query = tmp_path / "q.jsonl"
    index = tmp_path / "idx.jsonl"
    with open(workdir / "data.jsonl") as fh:
        lines = fh.readlines()
    query.write_text(lines[0])
    index.write_text("".join(lines[:6]))
    assert main(["search", str(workdir / "model.ckpt"), "--query", str(query),
                 "--index", str(index), "--top-k", "50"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 6


def test_search_empty_index_warns_exit_zero(workdir, tmp_path, capsys):
    query = tmp_path / "q.jsonl"
    with open(workdir / "data.jsonl") as fh:
        query.write_text(fh.readline())
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["search", str(workdir / "model.ckpt"), "--query", str(query),
                 "--index", str(empty)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "empty" in captured.err


def test_search_external_vocab_mismatch_warns(workdir, tmp_path, capsys):
    data = workdir / "data.jsonl"
    other = tmp_path / "other_vocab.txt"
    assert main(["vocab", str(data), "--out", str(other), "--min-freq", "1"]) == 0
    query = tmp_path / "q.jsonl"
    with open(data) as fh:
        query.write_text(fh.readline())
    capsys.readouterr()
    assert main(["search", str(workdir / "model.ckpt"), "--query", str(query),
                 "--index", str(data), "--top-k", "1", "--vocab", str(other)]) == 0
    assert "differs from the vocabulary embedded" in capsys.readouterr().err


@pytest.mark.parametrize("index_lines", [0, 6])
def test_search_top_k_below_one_is_checked_first(workdir, tmp_path, capsys, index_lines):
    with open(workdir / "data.jsonl") as fh:
        lines = fh.readlines()
    query, index = tmp_path / "q.jsonl", tmp_path / "idx.jsonl"
    query.write_text(lines[0])
    index.write_text("".join(lines[:index_lines]))
    assert main(["search", str(workdir / "model.ckpt"), "--query", str(query),
                 "--index", str(index), "--top-k", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [line.split(":")[0] for line in captured.err.splitlines()] == ["error"]
    assert not (tmp_path / "idx.jsonl.embcache").exists()


# ------------------------------------------------------------------ search sidecar

N_INDEX = 12 * 3


@pytest.fixture
def embedded(monkeypatch):
    """Sizes of the Backbone.embed_matrix calls made during a test."""
    import asmsim.models as models

    sizes = []
    real = models.Backbone.embed_matrix

    def spy(self, encs):
        sizes.append(len(encs))
        return real(self, encs)

    monkeypatch.setattr(models.Backbone, "embed_matrix", spy)
    return sizes


def _copy_inputs(src, where):
    """The search's checkpoint, query and index copied into a directory of their own."""
    where.mkdir()
    for name in ("model.ckpt", "q.jsonl", "index.jsonl"):
        shutil.copy(src / name, where / name)
    return where


def _search(where, capsys):
    code = main(["search", str(where / "model.ckpt"), "--query", str(where / "q.jsonl"),
                 "--index", str(where / "index.jsonl"), "--top-k", "5"])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def searchdir(workdir, tmp_path):
    where = tmp_path / "search"
    where.mkdir()
    shutil.copy(workdir / "model.ckpt", where / "model.ckpt")
    shutil.copy(workdir / "data.jsonl", where / "index.jsonl")
    with open(workdir / "data.jsonl") as fh:
        (where / "q.jsonl").write_text(fh.readline())
    return where


def test_search_second_call_embeds_only_the_query(searchdir, capsys, embedded):
    cold = _search(searchdir, capsys)
    assert cold[0] == 0 and cold[2] == ""
    assert embedded == [1, N_INDEX]
    assert (searchdir / "index.jsonl.embcache").is_file()
    embedded.clear()
    assert _search(searchdir, capsys) == cold
    assert embedded == [1]


def test_search_hit_reads_no_index_and_prints_the_same_bytes(searchdir, capsys, monkeypatch):
    import asmsim.cli as cli

    read = []
    real = cli.load_dataset

    def spy(path):
        read.append(os.path.basename(path))
        return real(path)

    monkeypatch.setattr(cli, "load_dataset", spy)
    cold = _search(searchdir, capsys)
    assert read == ["q.jsonl", "index.jsonl"]
    read.clear()
    warm = _search(searchdir, capsys)
    assert read == ["q.jsonl"]                      # the names come from the sidecar
    (searchdir / "index.jsonl.embcache").unlink()
    read.clear()
    assert _search(searchdir, capsys) == warm == cold
    assert read == ["q.jsonl", "index.jsonl"]
    assert cold[0] == 0 and len(cold[1].splitlines()) == 5


def test_search_cold_sidecars_are_byte_identical(searchdir, capsys):
    sidecar = searchdir / "index.jsonl.embcache"
    assert _search(searchdir, capsys)[0] == 0
    first = sidecar.read_bytes()
    sidecar.unlink()
    assert _search(searchdir, capsys)[0] == 0
    assert sidecar.read_bytes() == first


def _retrain(where, workdir):
    assert main(["train", str(where / "index.jsonl"), str(workdir / "vocab.txt"),
                 "--out", str(where / "model.ckpt"), "--seed", "6", "--epochs", "0"]) == 0


def _edit_record(where, workdir):
    path = where / "index.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    rec = json.loads(lines[0])
    rec["instructions"] = rec["instructions"][::-1]
    path.write_text(json.dumps(rec, sort_keys=True) + "\n" + "".join(lines[1:]))


def _truncate(where, workdir):
    sidecar = where / "index.jsonl.embcache"
    sidecar.write_bytes(sidecar.read_bytes()[:-100])


def _flip_payload_byte(where, workdir):
    sidecar = where / "index.jsonl.embcache"
    raw = bytearray(sidecar.read_bytes())
    raw[-32 - 1] ^= 0x01                   # the last row's last byte, before the trailer
    sidecar.write_bytes(bytes(raw))


def _wrong_magic(where, workdir):
    sidecar = where / "index.jsonl.embcache"
    body = b"NOTACACH" + sidecar.read_bytes()[8:-32]
    sidecar.write_bytes(body + hashlib.sha256(body).digest())    # a valid trailer


def _stamp_version(where, version):
    """The sidecar as `version` wrote it: same key, rows and a valid trailer."""
    sidecar = where / "index.jsonl.embcache"
    body = bytearray(sidecar.read_bytes()[:-32])
    body[8:12] = struct.pack("<I", version)
    sidecar.write_bytes(bytes(body) + hashlib.sha256(body).digest())


def _version_1(where, workdir):
    """Version 1 rows came from length-sorted textcnn chunks, not from packed functions."""
    _stamp_version(where, 1)


def _version_2(where, workdir):
    """Version 2 lstm rows came from length-sorted padded chunks, not from packed groups."""
    _stamp_version(where, 2)


def _version_3(where, workdir):
    """Version 3 lstm rows came from per-step gate graphs, not from the fused lstm kernel."""
    _stamp_version(where, 3)


def _version_4(where, workdir):
    """Version 4 held no names, so a hit still parsed the index."""
    _stamp_version(where, 4)


def _reseal_names(where, names: bytes):
    """The sidecar with `names` as its names block, under a valid trailer."""
    sidecar = where / "index.jsonl.embcache"
    raw = sidecar.read_bytes()
    *head, n, e, names_len = embcache._HEADER.unpack_from(raw)
    rows_end = embcache._HEADER.size + 4 * n * e
    body = (embcache._HEADER.pack(*head, n, e, len(names)) + raw[embcache._HEADER.size:rows_end]
            + names)
    sidecar.write_bytes(body + hashlib.sha256(body).digest())


def _names_not_utf8(where, workdir):
    _reseal_names(where, b"\xff" * 8)


def _names_not_json(where, workdir):
    _reseal_names(where, b"[[")


def _names_not_lists(where, workdir):
    _reseal_names(where, json.dumps("x" * N_INDEX).encode())


def _names_of_ints(where, workdir):
    _reseal_names(where, json.dumps([[1, 2, 3, 4]] * N_INDEX).encode())


def _names_of_three_strings(where, workdir):
    _reseal_names(where, json.dumps([["a", "b", "c"]] * N_INDEX).encode())


@pytest.mark.parametrize("change", [_retrain, _edit_record, _truncate, _flip_payload_byte,
                                    _wrong_magic, _version_1, _version_2, _version_3,
                                    _version_4, _names_not_utf8, _names_not_json,
                                    _names_not_lists, _names_of_ints,
                                    _names_of_three_strings])
def test_search_rebuilds_a_stale_or_damaged_sidecar(searchdir, workdir, capsys, embedded,
                                                    change):
    first = _search(searchdir, capsys)
    change(searchdir, workdir)
    capsys.readouterr()
    fresh = _copy_inputs(searchdir, searchdir.parent / "fresh")
    expected = _search(fresh, capsys)
    if change in (_retrain, _edit_record):
        assert expected != first          # stale rows would have given the old ranking
    embedded.clear()
    assert _search(searchdir, capsys) == expected
    assert expected[0] == 0
    assert embedded == [1, N_INDEX]
    assert ((searchdir / "index.jsonl.embcache").read_bytes()
            == (fresh / "index.jsonl.embcache").read_bytes())


def test_search_index_edited_after_its_parse_keys_the_sidecar_on_the_parsed_bytes(
        searchdir, workdir, capsys, monkeypatch, embedded):
    import asmsim.cli as cli

    before = _copy_inputs(searchdir, searchdir.parent / "before")
    expected = _search(before, capsys)
    real = cli.load_dataset

    def load_then_edit(path):
        result = real(path)
        if str(path).endswith("index.jsonl"):
            _edit_record(searchdir, workdir)
        return result

    monkeypatch.setattr(cli, "load_dataset", load_then_edit)
    assert _search(searchdir, capsys) == expected     # ranks what it parsed
    sidecar = searchdir / "index.jsonl.embcache"
    assert sidecar.read_bytes() == (before / "index.jsonl.embcache").read_bytes()
    monkeypatch.setattr(cli, "load_dataset", real)
    edited = _copy_inputs(searchdir, searchdir.parent / "edited")
    after = _search(edited, capsys)
    assert after != expected
    embedded.clear()
    assert _search(searchdir, capsys) == after        # the edited bytes miss and rebuild
    assert embedded == [1, N_INDEX]
    assert sidecar.read_bytes() == (edited / "index.jsonl.embcache").read_bytes()


def test_search_index_edited_after_a_hit_ranks_the_hashed_bytes(searchdir, workdir, capsys,
                                                               monkeypatch, embedded):
    first = _search(searchdir, capsys)
    sidecar = (searchdir / "index.jsonl.embcache").read_bytes()
    real = embcache.load_rows

    def load_then_edit(*args):
        result = real(*args)
        _edit_record(searchdir, workdir)
        return result

    monkeypatch.setattr(embcache, "load_rows", load_then_edit)
    embedded.clear()
    assert _search(searchdir, capsys) == first         # the rows of the bytes it hashed
    assert embedded == [1]
    assert (searchdir / "index.jsonl.embcache").read_bytes() == sidecar


def test_search_checkpoint_replaced_after_its_load_keys_the_sidecar_on_the_loaded_bytes(
        searchdir, workdir, capsys, monkeypatch, embedded):
    """A checkpoint replaced after `load_checkpoint` read it: the search ranks
    with the checkpoint it loaded and keys the sidecar on the SHA-256 of those
    bytes, so the next search, which loads the new file, misses and rebuilds."""
    import asmsim.cli as cli

    before = _copy_inputs(searchdir, searchdir.parent / "before")
    expected = _search(before, capsys)
    retrained = _copy_inputs(searchdir, searchdir.parent / "retrained")
    _retrain(retrained, workdir)
    capsys.readouterr()
    after = _search(retrained, capsys)
    assert after != expected
    real = cli.load_checkpoint

    def load_then_replace(path):
        result = real(path)
        shutil.copy(retrained / "model.ckpt", searchdir / "model.ckpt")
        return result

    monkeypatch.setattr(cli, "load_checkpoint", load_then_replace)
    assert _search(searchdir, capsys) == expected     # ranks with the checkpoint it loaded
    sidecar = searchdir / "index.jsonl.embcache"
    assert sidecar.read_bytes() == (before / "index.jsonl.embcache").read_bytes()
    monkeypatch.setattr(cli, "load_checkpoint", real)
    embedded.clear()
    assert _search(searchdir, capsys) == after        # another digest: a miss, rebuilt
    assert embedded == [1, N_INDEX]
    assert sidecar.read_bytes() == (retrained / "index.jsonl.embcache").read_bytes()


def test_search_sidecar_keyed_on_the_raw_file_bytes_is_a_hit(searchdir, capsys, embedded):
    """The key is the SHA-256 of the checkpoint file and that of the index
    file, so a sidecar written under them by hand is used as it is."""
    assert _search(searchdir, capsys)[0] == 0
    key = (hashlib.sha256((searchdir / "model.ckpt").read_bytes()).digest(),
           hashlib.sha256((searchdir / "index.jsonl").read_bytes()).digest())
    sidecar = searchdir / "index.jsonl.embcache"
    width = embcache._HEADER.unpack_from(sidecar.read_bytes())[5]
    rows, names = embcache.load_rows(sidecar, key, width)
    marked = [[p, b, f"hit_{f}", o] for p, b, f, o in names]
    embcache.save_rows(sidecar, key, rows, marked)
    embedded.clear()
    code, out, err = _search(searchdir, capsys)
    assert (code, err, embedded) == (0, "", [1])
    assert out and all(line.split("\t")[4].startswith("hit_") for line in out.splitlines())


def _read_only_directory(monkeypatch, where):
    where.chmod(0o555)                     # root ignores the mode, so fail the create too

    def fake_open(path, mode="r", *args, **kwargs):
        if "x" in mode:
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
        return builtins.open(path, mode, *args, **kwargs)

    monkeypatch.setattr(manifest, "open", fake_open, raising=False)


def _full_disk(monkeypatch, where):
    def fake_open(path, mode="r", *args, **kwargs):
        handle = builtins.open(path, mode, *args, **kwargs)
        if "x" not in mode:
            return handle

        class Full:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                handle.close()

            def write(self, data):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)

        return Full()

    monkeypatch.setattr(manifest, "open", fake_open, raising=False)


def _sidecar_is_a_directory(monkeypatch, where):
    (where / "index.jsonl.embcache").mkdir()


@pytest.mark.parametrize("block", [_read_only_directory, _full_disk, _sidecar_is_a_directory])
def test_search_unwritable_sidecar_warns_and_answers(searchdir, capsys, monkeypatch, block):
    expected = _search(_copy_inputs(searchdir, searchdir.parent / "fresh"), capsys)
    block(monkeypatch, searchdir)
    try:
        code, out, err = _search(searchdir, capsys)
        names = sorted(p.name for p in searchdir.iterdir())
    finally:
        searchdir.chmod(0o755)
    assert (code, out) == expected[:2] and code == 0
    assert [line.split(":")[0] for line in err.splitlines()] == ["warning"]
    assert "index.jsonl.embcache" in err
    assert not [n for n in names if n.endswith(".tmp")]


# ------------------------------------------------------------------ exit codes

def test_usage_error_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["train"])  # missing required arguments
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def test_seed_is_mandatory_for_train_and_eval(workdir):
    with pytest.raises(SystemExit) as exc:
        main(["train", str(workdir / "data.jsonl"), str(workdir / "vocab.txt"),
              "--out", "/tmp/x.ckpt"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["eval", str(workdir / "data.jsonl"), str(workdir / "model.ckpt"),
              "--out", "/tmp/x"])
    assert exc.value.code == 1


def _one_error_line(capsys, *needles):
    """The command printed nothing but one `error:` line holding every needle."""
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    for needle in needles:
        assert needle in captured.err


@pytest.mark.parametrize("command", ["vocab", "search"])
def test_non_utf8_dataset_line_is_data_error(workdir, tmp_path, capsys, command):
    lines = (workdir / "data.jsonl").read_bytes().splitlines(keepends=True)
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(lines[0] + lines[1].replace(b'"O', b'"\xffO', 1) + lines[2])
    argv = {"vocab": ["vocab", str(bad), "--out", str(tmp_path / "v.txt")],
            "search": ["search", str(workdir / "model.ckpt"), "--query", str(bad),
                       "--index", str(workdir / "data.jsonl")]}[command]
    assert main(argv) == 2
    _one_error_line(capsys, f"{bad}:2: ", "utf-8")


def test_non_utf8_config_file_is_data_error(workdir, tmp_path, capsys):
    cfg = tmp_path / "train.cfg"
    cfg.write_bytes(b"epochs = 1\nmargin = \xff\n")
    assert main(["train", str(workdir / "data.jsonl"), str(workdir / "vocab.txt"),
                 "--out", str(tmp_path / "m.ckpt"), "--seed", "9",
                 "--config", str(cfg)]) == 2
    _one_error_line(capsys, f"{cfg}: not valid UTF-8")


@pytest.mark.parametrize("manifest", [b"{bad", b"[1,2]", b"\xff"])
def test_corrupt_vocab_manifest_is_data_error(workdir, tmp_path, capsys, manifest):
    vocab = tmp_path / "vocab.txt"
    shutil.copy(workdir / "vocab.txt", vocab)
    (tmp_path / "vocab.txt.manifest.json").write_bytes(manifest)
    assert main(["train", str(workdir / "data.jsonl"), str(vocab),
                 "--out", str(tmp_path / "m.ckpt"), "--seed", "9", "--epochs", "0"]) == 2
    _one_error_line(capsys, f"{vocab}.manifest.json: manifest is not a JSON object")
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("manifest", [b'{"inputs": [1]}', b'{"inputs": {"dataset": "x"}}'])
def test_vocab_manifest_dataset_entry_not_an_object_is_data_error(workdir, tmp_path, capsys,
                                                                  manifest):
    vocab = tmp_path / "vocab.txt"
    shutil.copy(workdir / "vocab.txt", vocab)
    (tmp_path / "vocab.txt.manifest.json").write_bytes(manifest)
    assert main(["train", str(workdir / "data.jsonl"), str(vocab),
                 "--out", str(tmp_path / "m.ckpt"), "--seed", "9", "--epochs", "0"]) == 2
    _one_error_line(capsys,
                    f"{vocab}.manifest.json: manifest `inputs.dataset` is not a JSON object")
    assert not (tmp_path / "m.ckpt").exists()


def test_embed_rejects_a_bad_checkpoint_config(workdir, tmp_path, capsys):
    """A config block of `[]` under a checksum that still holds."""
    path = tmp_path / "model.ckpt"
    body = bytearray((workdir / "model.ckpt").read_bytes()[:-32])
    (n,) = struct.unpack_from("<I", body, 12)
    body[12:16 + n] = struct.pack("<I", 2) + b"[]"
    path.write_bytes(bytes(body) + hashlib.sha256(body).digest())    # a valid trailer
    assert main(["embed", str(workdir / "data.jsonl"), str(path),
                 "--out", str(tmp_path / "e.jsonl")]) == 2
    _one_error_line(capsys, f"{path}: bad backbone config: not a JSON object")
    assert not (tmp_path / "e.jsonl").exists()


@pytest.mark.parametrize("version", [1, 2, 3])
def test_embed_rejects_an_earlier_checkpoint_version(workdir, tmp_path, capsys, version):
    path = tmp_path / "model.ckpt"
    body = bytearray((workdir / "model.ckpt").read_bytes()[:-32])
    body[8:12] = struct.pack("<I", version)
    path.write_bytes(bytes(body) + hashlib.sha256(body).digest())    # a valid trailer
    assert main(["embed", str(workdir / "data.jsonl"), str(path),
                 "--out", str(tmp_path / "e.jsonl")]) == 2
    _one_error_line(capsys, f"unsupported checkpoint version {version} (this release "
                            f"reads version 4 only; retrain the model)")


def test_train_rejects_a_v1_vocabulary(workdir, tmp_path, capsys):
    """A v1 header (no delimiter set) over a body whose checksum still holds."""
    header, rest = (workdir / "vocab.txt").read_bytes().split(b"\n", 1)
    vocab = tmp_path / "vocab.txt"
    vocab.write_bytes(header.split(b" delimiters=")[0].replace(b" v2 ", b" v1 ") + b"\n" + rest)
    assert main(["train", str(workdir / "data.jsonl"), str(vocab),
                 "--out", str(tmp_path / "m.ckpt"), "--seed", "9", "--epochs", "0"]) == 2
    _one_error_line(capsys, "# asmsim vocab v1 pad=<PAD>", "v2 header only")


# ------------------------------------------------------------------ provenance

@pytest.fixture(scope="module")
def others(workdir, tmp_path_factory):
    """A different dataset, vocabulary and checkpoint under the pipeline's file names."""
    root = tmp_path_factory.mktemp("others")
    save_dataset(generate(SynthConfig(n_families=12, seed=4)), root / "data.jsonl")
    assert main(["vocab", str(workdir / "data.jsonl"), "--out", str(root / "vocab.txt"),
                 "--min-freq", "1"]) == 0
    assert main(["train", str(workdir / "data.jsonl"), str(workdir / "vocab.txt"),
                 "--out", str(root / "model.ckpt"), "--seed", "6", "--epochs", "0"]) == 0
    return root


def _inputs(workdir, where):
    where.mkdir()
    for name in ("data.jsonl", "vocab.txt", "model.ckpt"):
        shutil.copy(workdir / name, where / name)
    return where


def _argv(command, where):
    data, vocab, ckpt = (str(where / n) for n in ("data.jsonl", "vocab.txt", "model.ckpt"))
    return {
        "vocab": ["vocab", data, "--out", str(where / "out.txt"), "--min-freq", "4"],
        "train": ["train", data, vocab, "--out", str(where / "out.ckpt"), "--seed", "5",
                  "--epochs", "1", "--batch-size", "64", "--negatives", "2"],
        "eval": ["eval", data, ckpt, "--out", str(where / "out"), "--seed", "7",
                 "--pool-size", "3"],
        "embed": ["embed", data, ckpt, "--out", str(where / "out.jsonl")],
    }[command]


# each command's outputs, the artifact first (its manifest is `<artifact>.manifest.json`)
_OUTPUTS = {"vocab": ["out.txt"], "train": ["out.ckpt", "out.ckpt.loss.csv"],
            "eval": ["out.json", "out.txt"], "embed": ["out.jsonl"]}
# each command's inputs by manifest role
_INPUTS = {"vocab": {"dataset": "data.jsonl"},
           "train": {"dataset": "data.jsonl", "vocab": "vocab.txt"},
           "eval": {"dataset": "data.jsonl", "checkpoint": "model.ckpt"},
           "embed": {"dataset": "data.jsonl", "checkpoint": "model.ckpt"}}


@pytest.mark.parametrize("command, role", [("vocab", "dataset"), ("train", "vocab"),
                                           ("eval", "checkpoint"), ("embed", "dataset")])
def test_manifest_records_the_bytes_the_command_loaded(workdir, others, tmp_path, monkeypatch,
                                                       command, role):
    """An input replaced just after its loader returns changes neither the
    outputs nor the digest the manifest records for it: that of the bytes loaded."""
    ref = _inputs(workdir, tmp_path / "ref")
    assert main(_argv(command, ref)) == 0
    where = _inputs(workdir, tmp_path / "run")
    name = _INPUTS[command][role]
    loaded = manifest.file_sha256(where / name)
    owner, attr = {"dataset": (cli, "load_dataset"), "checkpoint": (cli, "load_checkpoint"),
                   "vocab": (cli.Vocabulary, "load")}[role]
    real = getattr(owner, attr)

    def load_then_replace(path):
        result = real(path)
        if os.path.basename(path) == name:
            shutil.copy(others / name, path)
        return result

    monkeypatch.setattr(owner, attr, load_then_replace if owner is cli
                        else staticmethod(load_then_replace))
    assert main(_argv(command, where)) == 0
    assert manifest.file_sha256(where / name) != loaded
    for out in _OUTPUTS[command]:
        assert (where / out).read_bytes() == (ref / out).read_bytes(), out
    doc = json.loads((where / f"{_OUTPUTS[command][0]}.manifest.json").read_text())
    assert doc["inputs"][role] == {"path": str(where / name), "sha256": loaded}
    recorded = {e["path"]: e["sha256"] for e in doc["outputs"].values()}
    assert recorded == {str(where / out): manifest.file_sha256(where / out)
                        for out in _OUTPUTS[command]}


@pytest.mark.parametrize("command", list(_OUTPUTS))
def test_command_opens_each_input_once_and_hashes_no_file(workdir, tmp_path, monkeypatch,
                                                          command):
    """Each input is read once and every digest comes from the bytes read or
    written, and each recorded digest is that of its file."""
    where = _inputs(workdir, tmp_path / "run")
    hashed, opened = [], collections.Counter()
    file_sha256 = manifest.file_sha256

    def hash_spy(path):
        hashed.append(path)
        return file_sha256(path)

    def open_spy(path, mode="r", *args, **kwargs):
        if not set(mode) & set("wax+"):
            opened[os.path.basename(path)] += 1
        return builtins.open(path, mode, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(cli, "file_sha256", hash_spy)
        patch.setattr(manifest, "file_sha256", hash_spy)
        for module in ("cli", "corpus", "models", "tokenizer", "manifest"):
            patch.setattr(importlib.import_module(f"asmsim.{module}"), "open", open_spy,
                          raising=False)
        assert main(_argv(command, where)) == 0
    assert hashed == []
    inputs = _INPUTS[command].values()
    assert {name: opened[name] for name in inputs} == dict.fromkeys(inputs, 1)
    doc = json.loads((where / f"{_OUTPUTS[command][0]}.manifest.json").read_text())
    for entry in [*doc["inputs"].values(), *doc["outputs"].values()]:
        assert entry["sha256"] == manifest.file_sha256(entry["path"])


@pytest.mark.parametrize("command", list(_OUTPUTS))
def test_manifest_records_the_host(workdir, tmp_path, monkeypatch, command):
    """Beside its timestamp every manifest records what the artifact's bits
    depend on: the BLAS build numpy reports, the BLAS thread settings of the
    environment and the CPU model."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    where = _inputs(workdir, tmp_path / "run")
    assert main(_argv(command, where)) == 0
    doc = json.loads((where / f"{_OUTPUTS[command][0]}.manifest.json").read_text())
    assert "created_utc" in doc
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    host = doc["host"]
    assert host["blas"] == {"name": blas["name"], "version": blas["version"]}
    assert host["threads"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None}
    assert isinstance(host["cpu"], str) and host["cpu"]
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        assert not models or host["cpu"] == models[0]


# ------------------------------------------------------------------ artifact writes

def _full_disk_from(monkeypatch, where, writer):
    """The disk fills when `cli.<writer>` is called."""
    real = getattr(cli, writer)

    def fill_then_write(*args, **kwargs):
        _full_disk(monkeypatch, where)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, writer, fill_then_write)


@pytest.mark.parametrize("command, writer, kept", [
    ("vocab", None, ["out.txt", "out.txt.manifest.json"]),
    ("eval", None, ["out.json", "out.txt", "out.json.manifest.json"]),
    ("embed", None, ["out.jsonl", "out.jsonl.manifest.json"]),
    ("train", "write_loss_csv", ["out.ckpt.loss.csv"]),   # its manifest is removed, below
    ("embed", "write_manifest", ["out.jsonl.manifest.json"]),
])
def test_full_disk_leaves_the_previous_artifact(workdir, tmp_path, capsys, monkeypatch,
                                                command, writer, kept):
    """A write that fails exits 2 with one error line and leaves each file it
    did not finish as it was, with no temp file."""
    where = _inputs(workdir, tmp_path / "run")
    for name in kept:
        (where / name).write_bytes(b"previous\n")
    if writer is None:
        _full_disk(monkeypatch, where)
    else:
        _full_disk_from(monkeypatch, where, writer)
    assert main(_argv(command, where)) == 2
    _one_error_line(capsys, os.strerror(errno.ENOSPC))
    for name in kept:
        assert (where / name).read_bytes() == b"previous\n", name
    assert not [p.name for p in where.iterdir() if p.name.endswith(".tmp")]


def test_train_failed_write_leaves_no_stale_manifest(workdir, tmp_path, capsys, monkeypatch):
    """The previous run's manifest is gone before the first checkpoint write,
    an interval one included, so a run that fails after it leaves no manifest
    describing another checkpoint."""
    where = _inputs(workdir, tmp_path / "run")
    assert main(_argv("train", where)) == 0
    capsys.readouterr()
    stale = where / "out.ckpt.manifest.json"
    assert stale.exists()
    real_save, at_save = cli.save_checkpoint, []

    def spy_save(path, *args):
        at_save.append(stale.exists())
        return real_save(path, *args)

    def fail(*args):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli, "save_checkpoint", spy_save)
    monkeypatch.setattr(cli, "write_loss_csv", fail)
    assert main(_argv("train", where) + ["--checkpoint-every", "1"]) == 2
    _one_error_line(capsys, os.strerror(errno.ENOSPC))
    assert len(at_save) >= 2 and not any(at_save)     # an interval write per batch
    assert not stale.exists()


def test_write_failure_names_the_artifact_not_its_temp_file(workdir, tmp_path, capsys):
    out = tmp_path / "nodir" / "v.txt"
    assert main(["vocab", str(workdir / "data.jsonl"), "--out", str(out)]) == 2
    _one_error_line(capsys, f"{os.strerror(errno.ENOENT)}: {out}\n")
    assert not out.parent.exists()


def _open_calls(node, function=None):
    """(enclosing function, call) for each `open` call under `node`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _open_calls(child, child.name)
            continue
        if isinstance(child, ast.Call) and getattr(child.func, "id",
                                                   getattr(child.func, "attr", None)) == "open":
            yield function, child
        yield from _open_calls(child, function)


def _mode(call) -> str:
    """The mode an `open` call passes; one the source does not spell out reads as "?"."""
    given = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
    if not given:
        return "r"
    return given[0].value if isinstance(given[0], ast.Constant) else "?"


def test_write_atomic_is_the_only_code_that_writes_a_file():
    src = os.path.dirname(manifest.__file__)
    reads, writes = 0, []
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for function, call in _open_calls(tree):
            if set(str(_mode(call))) & set("wax+?"):
                writes.append((name, function))
            else:
                reads += 1
        writes += [(name, node.func.attr) for node in ast.walk(tree)
                   if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                   and node.func.attr in ("write_text", "write_bytes")]
    assert writes == [("manifest.py", "write_atomic")]
    assert reads >= 6                      # the walk does see the readers
