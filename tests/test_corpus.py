"""Dataset parsing errors, family grouping, and pair-sampling invariants."""

import json

import numpy as np
import pytest

from asmsim.corpus import (
    CorpusIndex, FunctionRecord, load_dataset, make_pairs, normalize_text, save_dataset,
)
from asmsim.errors import DataError
from asmsim.manifest import file_sha256


def rec(name, opt, instructions, project="proj", binary="bin"):
    return FunctionRecord(project, binary, name, opt, tuple(instructions))


def write_lines(tmp_path, lines, name="data.jsonl"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def obj(name="f1", opt="O0", instructions=("mov eax, 1",), **extra):
    d = {"project": "p", "binary": "b", "function": name,
         "opt_level": opt, "instructions": list(instructions)}
    d.update(extra)
    return json.dumps(d)


def test_load_and_group(tmp_path):
    path = write_lines(tmp_path, [obj("f1", "O0"), obj("f1", "O3", ["ret"]), obj("f2", "O0")])
    corpus = load_dataset(path)
    assert len(corpus) == 3
    assert len(corpus.families) == 2
    fam = corpus.families[("p", "b", "f1")]
    assert set(fam.members) == {"O0", "O3"}


def test_load_hashes_every_byte_it_reads(tmp_path):
    """Blank lines, CRLF endings and a last line without a newline all count."""
    path = tmp_path / "data.jsonl"
    path.write_bytes(("\n" + obj("f1") + "\r\n  \n\n" + obj("f2", "O3")).encode("utf-8"))
    corpus = load_dataset(path)
    assert len(corpus) == 2
    assert corpus.sha256 == file_sha256(path)
    assert load_dataset(write_lines(tmp_path, [], "empty.jsonl")).sha256 == file_sha256(
        tmp_path / "empty.jsonl")
    assert CorpusIndex(corpus.records).sha256 is None


def test_malformed_json_cites_line(tmp_path):
    path = write_lines(tmp_path, [obj(), "{broken", obj("f2")])
    with pytest.raises(DataError, match=r":2"):
        load_dataset(path)


def test_missing_opt_level_cites_line(tmp_path):
    bad = json.dumps({"project": "p", "binary": "b", "function": "f",
                      "instructions": ["ret"]})
    path = write_lines(tmp_path, [obj(), bad])
    with pytest.raises(DataError, match=r":2.*opt_level"):
        load_dataset(path)


def test_bad_opt_level_value(tmp_path):
    path = write_lines(tmp_path, [obj(opt="O9")])
    with pytest.raises(DataError, match="opt_level"):
        load_dataset(path)


def test_empty_instructions_rejected(tmp_path):
    path = write_lines(tmp_path, [obj(instructions=())])
    with pytest.raises(DataError, match="instructions"):
        load_dataset(path)


def test_duplicate_identity_names_key(tmp_path):
    path = write_lines(tmp_path, [obj("f1", "O0"), obj("f1", "O0", ["ret"])])
    with pytest.raises(DataError, match=r"f1.*O0"):
        load_dataset(path)


def test_duplicate_json_key_rejected(tmp_path):
    line = '{"project": "p", "binary": "b", "function": "f", "function": "g", "opt_level": "O0", "instructions": ["ret"]}'
    path = write_lines(tmp_path, [line])
    with pytest.raises(DataError, match="duplicate key"):
        load_dataset(path)


def test_save_load_round_trip(tmp_path):
    records = [rec("f1", "O0", ["mov eax, 1", "ret"]), rec("f1", "Os", ["ret"])]
    path = tmp_path / "ds.jsonl"
    written = save_dataset(records, path)
    corpus = load_dataset(path)
    assert corpus.records == records
    assert corpus.sha256 == written == file_sha256(path)


def test_normalize_collapses_whitespace():
    assert normalize_text(["mov  eax,   1", " ret "]) == normalize_text(["mov eax, 1", "ret"])
    assert normalize_text(["mov eax, 1"]) != normalize_text(["mov eax, 2"])


def test_positive_pairs_cross_level_differing_text():
    # family with three levels; O0 and O1 share identical normalized text
    records = [
        rec("f1", "O0", ["mov eax, 1", "ret"]),
        rec("f1", "O1", ["mov  eax, 1", "ret"]),   # same after normalization
        rec("f1", "O3", ["ret"]),
        rec("f2", "O0", ["push rbp"]),
    ]
    stream = make_pairs(_corpus(records), R=0, seed=1)
    pos = [p for p in stream if p.label == 1]
    assert len(pos) == 2  # (O0,O3) and (O1,O3); (O0,O1) filtered as identical
    for p in pos:
        assert p.anchor.family_key == p.other.family_key
        assert p.anchor.opt_level != p.other.opt_level
        assert normalize_text(p.anchor.instructions) != normalize_text(p.other.instructions)


def _corpus(records):
    from asmsim.corpus import CorpusIndex
    return CorpusIndex(records)


def test_single_family_warns_no_negatives():
    records = [rec("f1", "O0", ["a"]), rec("f1", "O3", ["b"])]
    with pytest.warns(UserWarning, match="single family"):
        stream = make_pairs(_corpus(records), R=30, seed=0)
    assert np.count_nonzero(stream.labels < 0) == 0
    assert np.count_nonzero(stream.labels > 0) == 1


def test_two_singleton_families_give_r_negatives_each():
    records = [rec("f1", "O0", ["a"]), rec("f2", "O0", ["b"])]
    stream = make_pairs(_corpus(records), R=30, seed=0)
    assert np.count_nonzero(stream.labels > 0) == 0
    assert np.count_nonzero(stream.labels < 0) == 60  # 30 per function, pool of one candidate cycles
    for p in stream:
        assert p.label == -1
        assert p.anchor.family_key != p.other.family_key


def test_negatives_never_share_family():
    records = []
    for i in range(6):
        records.append(rec(f"f{i}", "O0", [f"mov eax, {i}"]))
        records.append(rec(f"f{i}", "O3", [f"add eax, {i}"]))
    stream = make_pairs(_corpus(records), R=5, seed=3)
    for p in stream:
        if p.label == -1:
            assert p.anchor.family_key != p.other.family_key
        else:
            assert p.anchor.family_key == p.other.family_key


def test_no_repeats_within_anchor_when_pool_suffices():
    records = [rec(f"f{i}", "O0", [f"i{i}"]) for i in range(20)]
    stream = make_pairs(_corpus(records), R=10, seed=4)
    by_anchor = {}
    for p in stream:
        by_anchor.setdefault(id(p.anchor), []).append(id(p.other))
    for others in by_anchor.values():
        assert len(others) == 10
        assert len(set(others)) == 10


def test_stream_deterministic_and_shuffled():
    records = []
    for i in range(8):
        records.append(rec(f"f{i}", "O0", [f"mov eax, {i}"]))
        records.append(rec(f"f{i}", "O3", [f"lea eax, {i}"]))
    c = _corpus(records)
    a = [(p.anchor.function_name, p.other.function_name, p.label) for p in make_pairs(c, R=4, seed=9)]
    b = [(p.anchor.function_name, p.other.function_name, p.label) for p in make_pairs(c, R=4, seed=9)]
    assert a == b
    c2 = [(p.anchor.function_name, p.other.function_name, p.label) for p in make_pairs(c, R=4, seed=10)]
    assert a != c2
    labels = [y for _, _, y in a]
    assert labels != sorted(labels) and labels != sorted(labels, reverse=True)


def test_ratio_order_of_magnitude():
    records = []
    for i in range(40):
        records.append(rec(f"f{i}", "O0", [f"mov eax, {i}"]))
        records.append(rec(f"f{i}", "O3", [f"lea eax, {i}"]))
        records.append(rec(f"f{i}", "Os", [f"add eax, {i}"]))
    stream = make_pairs(_corpus(records), R=30, seed=0)
    ratio = np.count_nonzero(stream.labels > 0) / np.count_nonzero(stream.labels < 0)
    assert 0.01 < ratio < 0.2
