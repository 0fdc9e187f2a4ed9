"""Tokenization, vocabulary mining, file round-trips, and grid encoding."""

import hashlib
import re
import warnings

import numpy as np
import pytest

from asmsim import tokenizer
from asmsim.corpus import FunctionRecord
from asmsim.errors import DataError
from asmsim.synthetic import SynthConfig, generate
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
    written = vocab.save(path)
    first = path.read_bytes()
    loaded = Vocabulary.load(path)
    assert written == loaded.sha256 == hashlib.sha256(first).hexdigest()
    assert vocab.sha256 is None
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
    for header in ("# asmsim vocab v1 pad=<PAD> unk=<UNK> min_freq=1",
                   '# asmsim vocab v1 pad=<PAD> unk=<UNK> min_freq=1 delimiters="."',
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


# ------------------------------------------------------------------ per distinct instruction

def naive_split(text, delimiters):
    return [tok for tok in re.split("[" + re.escape(delimiters) + "]+", text) if tok]


def naive_build_vocab(records, min_freq, delimiters=DEFAULT_DELIMITERS):
    """The reference count: every instruction occurrence split on its own."""
    counts = {}
    for r in records:
        for ins in r.instructions:
            for tok in naive_split(ins, delimiters):
                counts[tok] = counts.get(tok, 0) + 1
    for reserved in (PAD_TOKEN, UNK_TOKEN):
        counts.pop(reserved, None)
    kept = sorted(((t, c) for t, c in counts.items() if c >= min_freq),
                  key=lambda kv: (-kv[1], kv[0]))
    return Vocabulary([PAD_TOKEN, UNK_TOKEN] + [t for t, _ in kept], [0, 0] + [c for _, c in kept],
                      min_freq=min_freq, delimiters=delimiters)


def naive_encode(vocab, instructions, k_tokens):
    grid = np.full((len(instructions), k_tokens), PAD_ID, dtype=np.int32)
    for i, ins in enumerate(instructions):
        for j, tok in enumerate(naive_split(ins, vocab.delimiters)[:k_tokens]):
            grid[i, j] = vocab.token_to_id.get(tok, UNK_ID)
    return grid


def long_like_records(n_families=24, seed=2):
    """Long functions with family-specific operands: a few stock bodies end
    to end, most instruction strings distinct, thousands of rare tokens."""
    stock = generate(SynthConfig(n_families=4 * n_families, seed=seed))
    out = []
    for j in range(n_families):
        for level in range(3):
            body = [ins for f in range(4) for ins in stock[3 * (4 * j + f) + level].instructions]
            body = [f"{ins}, v{j}_{c}" if c % 3 else ins for c, ins in enumerate(body)]
            out.append(FunctionRecord("lw", "b", f"lw_{j}", f"O{level}", tuple(body)))
    return out


def split_calls(monkeypatch):
    """The texts the compiled token pattern is run on, in order."""
    seen = []
    real = tokenizer._token_pattern

    class Counting:
        def __init__(self, delimiters):
            self.pattern = real(delimiters)

        def findall(self, text):
            seen.append(text)
            return self.pattern.findall(text)

    monkeypatch.setattr(tokenizer, "_token_pattern", Counting)
    return seen


@pytest.mark.parametrize("delimiters", [DEFAULT_DELIMITERS, " ."])
def test_encode_with_a_shared_row_map_equals_encoding_alone(delimiters):
    pool = ["mov eax, ebx", "mov.eax.ebx", "a b c d e f g h", "a.b.c.d.e.f.g.h", "",
            "  ,, [] ", " . . ", "push rbp", "call junk_token", "nop", "x.y z"]
    rng = np.random.default_rng(3)
    funcs = [[pool[i] for i in rng.integers(0, len(pool), size=int(rng.integers(1, 30)))]
             for _ in range(40)]
    vocab = build_vocab([rec(f) for f in funcs[:20]], min_freq=3, delimiters=delimiters)
    for k in (1, 3, 5):
        rows = {}
        for f in funcs:
            shared = encode_function(vocab, f, k_tokens=k, max_positions=8, rows=rows)
            alone = encode_function(vocab, f, k_tokens=k, max_positions=8)
            for enc in (shared, alone):
                assert enc.token_ids.dtype == np.int32 and enc.token_ids.flags.c_contiguous
                assert enc.token_ids.flags.writeable
                np.testing.assert_array_equal(enc.token_ids, naive_encode(vocab, f, k))
                np.testing.assert_array_equal(
                    enc.position_ids, np.minimum(np.arange(len(f), dtype=np.int32), 7))
        assert set(rows) == {ins for f in funcs for ins in f}


def test_each_distinct_instruction_is_split_once(monkeypatch):
    records = generate(SynthConfig(n_families=20, seed=1))
    distinct = {ins for r in records for ins in r.instructions}
    seen = split_calls(monkeypatch)
    vocab = build_vocab(records, min_freq=1)
    assert sorted(seen) == sorted(distinct)
    seen.clear()
    rows = {}
    for r in records:
        encode_function(vocab, r, rows=rows)
    assert sorted(seen) == sorted(distinct)


@pytest.mark.parametrize("corpus", ["stock", "long-like"])
def test_build_vocab_equals_the_per_occurrence_count(corpus):
    records = (generate(SynthConfig(n_families=200, seed=1)) if corpus == "stock"
               else long_like_records())
    for min_freq in (1, 32):
        assert (build_vocab(records, min_freq=min_freq).file_bytes()
                == naive_build_vocab(records, min_freq).file_bytes())
    assert (build_vocab(records, min_freq=2, delimiters=" ,").file_bytes()
            == naive_build_vocab(records, 2, delimiters=" ,").file_bytes())


def test_build_vocab_drops_literal_reserved_tokens_with_one_warning_each():
    records = [rec(["mov <PAD>, eax", "mov <PAD>, eax", "push <UNK>"] * 5 + ["mov eax"])]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        vocab = build_vocab(records, min_freq=1)
    messages = sorted(str(w.message) for w in caught)
    assert messages == [f"corpus contains literal {t} token; dropped from vocabulary"
                        for t in (PAD_TOKEN, UNK_TOKEN)]
    assert vocab.file_bytes() == naive_build_vocab(records, 1).file_bytes()


def test_build_vocab_without_repeated_instructions():
    """Every instruction distinct: the counting pass finds nothing to share."""
    records = [rec([f"op{i % 97} r{i % 13}, 0x{i:x}" for i in range(f * 500, (f + 1) * 500)],
                   name=f"f{f}") for f in range(6)]
    assert len({ins for r in records for ins in r.instructions}) == 3000
    for min_freq in (1, 2, 32):
        assert (build_vocab(records, min_freq=min_freq).file_bytes()
                == naive_build_vocab(records, min_freq).file_bytes())
