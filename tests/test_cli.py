"""End-to-end command behavior: artifacts, exit codes, warnings."""

import builtins
import dataclasses
import errno
import hashlib
import json
import os
import shutil
import struct

import numpy as np
import pytest

from asmsim import embcache
from asmsim.cli import main, read_config_file
from asmsim.corpus import save_dataset
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
    """A bad optimization pair, recall cutoff or pool size is a one-line data error."""
    for option, message in ((["--opt-pairs", "O0,O9"], "O0,O9"),
                            (["--ks", "0"], "recall cutoffs"),
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


@pytest.mark.parametrize("change", [_retrain, _edit_record, _truncate, _flip_payload_byte,
                                    _wrong_magic, _version_1, _version_2, _version_3,
                                    _version_4])
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


def test_search_index_edited_while_read_writes_no_sidecar(searchdir, workdir, capsys,
                                                          monkeypatch):
    import asmsim.cli as cli

    expected = _search(_copy_inputs(searchdir, searchdir.parent / "before"), capsys)
    real = cli.load_dataset

    def load_then_edit(path):
        result = real(path)
        if str(path).endswith("index.jsonl"):
            _edit_record(searchdir, workdir)
        return result

    monkeypatch.setattr(cli, "load_dataset", load_then_edit)
    assert _search(searchdir, capsys) == expected     # ranks what it read
    assert not (searchdir / "index.jsonl.embcache").exists()


def test_search_hit_whose_second_key_differs_is_not_used(searchdir, workdir, capsys,
                                                        monkeypatch, embedded):
    first = _search(searchdir, capsys)
    sidecar = (searchdir / "index.jsonl.embcache").read_bytes()
    edited = _copy_inputs(searchdir, searchdir.parent / "edited")
    _edit_record(edited, workdir)
    expected = _search(edited, capsys)
    assert expected != first
    real = embcache.load_rows

    def load_then_edit(*args):
        result = real(*args)
        _edit_record(searchdir, workdir)
        return result

    monkeypatch.setattr(embcache, "load_rows", load_then_edit)
    embedded.clear()
    assert _search(searchdir, capsys) == expected      # ranks the index it then read
    assert embedded == [1, N_INDEX]
    assert (searchdir / "index.jsonl.embcache").read_bytes() == sidecar


def _read_only_directory(monkeypatch, where):
    where.chmod(0o555)                     # root ignores the mode, so fail the create too

    def fake_open(path, mode="r", *args, **kwargs):
        if "x" in mode:
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
        return builtins.open(path, mode, *args, **kwargs)

    monkeypatch.setattr(embcache, "open", fake_open, raising=False)


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

    monkeypatch.setattr(embcache, "open", fake_open, raising=False)


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
