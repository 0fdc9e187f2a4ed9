"""Tokenization, vocabulary mining, file round-trips, and grid encoding."""

import hashlib

import numpy as np
import pytest

from asmsim.corpus import FunctionRecord
from asmsim.errors import DataError
from asmsim.tokenizer import (
    DEFAULT_DELIMITERS, PAD_ID, UNK_ID, PAD_TOKEN, UNK_TOKEN,
    Vocabulary, build_vocab, encode_function, split_instruction,
)


def rec(instructions, name="f", opt="O0"):
    return FunctionRecord("p", "b", name, opt, tuple(instructions))


def test_split_examples():
    assert split_instruction("mov eax, 0x10") == ["mov", "eax", "0x10"]
    assert split_instruction("lea rax, [rbp+var_8]") == ["lea", "rax", "rbp", "var_8"]
    assert split_instruction("") == []
    assert split_instruction("  ,, [] ") == []


def test_split_opcode_first():
    for text in ("mov eax, ebx", "call strlen", "jmp .L1", "add rsp, 0x20"):
        toks = split_instruction(text)
        assert toks[0] == text.split()[0]


def test_split_custom_delimiters():
    assert split_instruction("a.b c", delimiters=" .") == ["a", "b", "c"]
    with pytest.raises(ValueError):
        split_instruction("x", delimiters="")


def test_threshold_boundary():
    # one token at freq F-1, one at F
    records = [rec(["alpha beta"] * 31 + ["beta"])]
    vocab = build_vocab(records, min_freq=32)
    assert vocab.id_of("beta") != UNK_ID
    assert vocab.id_of("alpha") == UNK_ID
    assert vocab.freq("beta") == 32


def test_id_order_descending_freq_then_lex():
    records = [rec(["zz yy"] * 40 + ["aa"] * 40 + ["mm"] * 50)]
    vocab = build_vocab(records, min_freq=32)
    assert vocab.id_to_token[:2] == [PAD_TOKEN, UNK_TOKEN]
    assert vocab.id_to_token[2:] == ["mm", "aa", "yy", "zz"]


def test_empty_corpus_vocab_warns():
    with pytest.warns(UserWarning, match="empty"):
        vocab = build_vocab([], min_freq=32)
    assert vocab.size == 2


def test_vocab_round_trip_byte_identical(tmp_path):
    records = [rec([f"mov r{i % 4}, 0x{i % 8:x}" for i in range(400)])]
    vocab = build_vocab(records, min_freq=32)
    path = tmp_path / "vocab.txt"
    vocab.save(path)
    first = path.read_bytes()
    loaded = Vocabulary.load(path)
    path2 = tmp_path / "vocab2.txt"
    loaded.save(path2)
    assert path2.read_bytes() == first
    assert loaded.min_freq == 32
    assert loaded.id_to_token == vocab.id_to_token


@pytest.mark.parametrize("delimiters", [".", " \t.\"\\", "\u00e9|"])
def test_vocab_round_trip_keeps_delimiters(tmp_path, delimiters):
    records = [rec(["mov.eax.ebx"] * 3 + ["add eax|1"] * 2)]
    vocab = build_vocab(records, min_freq=1, delimiters=delimiters)
    path = tmp_path / "vocab.txt"
    vocab.save(path)
    loaded = Vocabulary.load(path)
    assert loaded.delimiters == delimiters
    for r in records:
        np.testing.assert_array_equal(encode_function(loaded, r).token_ids,
                                      encode_function(vocab, r).token_ids)
    assert loaded.file_bytes() == path.read_bytes()


def test_vocab_v1_header_reads_default_delimiters():
    body = "<PAD>\t0\n<UNK>\t0\nmov\t40\n"
    raw = (f"# asmsim vocab v1 pad=<PAD> unk=<UNK> min_freq=32\n"
           f"# sha256={hashlib.sha256(body.encode()).hexdigest()}\n{body}").encode()
    vocab = Vocabulary.from_bytes(raw)
    assert vocab.delimiters == DEFAULT_DELIMITERS
    assert vocab.id_to_token == [PAD_TOKEN, UNK_TOKEN, "mov"]
    assert encode_function(vocab, ["mov eax"]).token_ids[0, 0] == 2


def test_vocab_checksum_detects_corruption(tmp_path):
    vocab = build_vocab([rec(["mov eax"] * 40)], min_freq=32)
    path = tmp_path / "vocab.txt"
    vocab.save(path)
    raw = path.read_bytes().replace(b"mov", b"xor")
    path.write_bytes(raw)
    with pytest.raises(DataError, match="checksum"):
        Vocabulary.load(path)


def test_vocab_rejects_garbage(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("not a vocab\n")
    with pytest.raises(DataError):
        Vocabulary.load(path)
    for header in ('# asmsim vocab v1 pad=<PAD> unk=<UNK> min_freq=1 delimiters="."',
                   "# asmsim vocab v2 pad=<PAD> unk=<UNK> min_freq=1",
                   '# asmsim vocab v2 pad=<PAD> unk=<UNK> min_freq=1 delimiters=""',
                   '# asmsim vocab v2 pad=<PAD> unk=<UNK> min_freq=1 delimiters="\\q"',
                   '# asmsim vocab v2 pad=<PAD> unk=<UNK> min_freq=1 delimiters="a"b"'):
        path.write_text(header + "\n# sha256=0\n<PAD>\t0\n<UNK>\t0\n")
        with pytest.raises(DataError, match="header"):
            Vocabulary.load(path)


def test_encode_pads_and_truncates():
    vocab = build_vocab([rec(["a b c d e f g", "a b"] * 32)], min_freq=2)
    enc = encode_function(vocab, ["a b", "a b c d e f g"], k_tokens=5)
    assert enc.token_ids.shape == (2, 5)
    a, b = vocab.id_of("a"), vocab.id_of("b")
    np.testing.assert_array_equal(enc.token_ids[0], [a, b, PAD_ID, PAD_ID, PAD_ID])
    assert PAD_ID not in enc.token_ids[1]  # 7 tokens -> first 5 kept
    np.testing.assert_array_equal(
        enc.token_ids[1][:2], [a, b])


def test_encode_oov_maps_to_unk():
    vocab = build_vocab([rec(["mov eax"] * 40)], min_freq=32)
    enc = encode_function(vocab, ["mov junk_token"])
    assert enc.token_ids[0, 0] == vocab.id_of("mov")
    assert enc.token_ids[0, 1] == UNK_ID


def test_encode_position_clamp():
    vocab = build_vocab([rec(["nop"] * 40)], min_freq=32)
    enc = encode_function(vocab, ["nop"] * 600, max_positions=512)
    assert enc.position_ids[0] == 0
    assert enc.position_ids[511] == 511
    assert enc.position_ids[599] == 511
    assert enc.position_ids.max() == 511


def test_encode_zero_instructions_rejected():
    with pytest.warns(UserWarning, match="vocabulary is empty"):
        vocab = build_vocab([], min_freq=32)
    with pytest.raises(DataError):
        encode_function(vocab, [])


def test_encode_deterministic():
    vocab = build_vocab([rec(["mov eax, ebx"] * 40)], min_freq=2)
    a = encode_function(vocab, ["mov eax, ebx", "mov ebx, eax"])
    b = encode_function(vocab, ["mov eax, ebx", "mov ebx, eax"])
    np.testing.assert_array_equal(a.token_ids, b.token_ids)
    np.testing.assert_array_equal(a.position_ids, b.position_ids)
