"""Command-line surface: vocab, train, eval, embed, and search.

Every command is one process run producing files plus a manifest sidecar,
each written whole or not at all (`write_atomic`); identical inputs and seed
give byte-identical artifacts (timestamps live only in manifests). Exit
codes: 0 success, 1 usage, 2 data, 3 numeric.

`search` also keeps `<index>.embcache` next to its index: the index's
embeddings and printed names under the SHA-256 of the checkpoint and index
bytes it read, reused by the next search of the pair without parsing the
index (see `embcache`). It is a cache, not an artifact, so it carries no
manifest; a search that cannot write it warns and still answers.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys

from . import __version__, embcache
from .corpus import OPT_LEVELS, load_dataset
from .errors import DataError, NumericError
from .evaluate import (
    DEFAULT_KS, DEFAULT_OPT_PAIRS, DEFAULT_POOL_SIZE, cosine_matrix,
    descending_order, evaluate_model,
)
from .manifest import file_sha256, load_manifest, manifest_path_for, write_atomic, write_manifest
from .models import VARIANTS, BackboneConfig, load_checkpoint, save_checkpoint
from .tokenizer import (
    DEFAULT_DELIMITERS, DEFAULT_MIN_FREQ, Vocabulary, build_vocab,
    encode_function,
)
from .train import TrainConfig, train, write_loss_csv


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; our contract reserves 2 for data errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _warn(message: str):
    print(f"warning: {message}", file=sys.stderr)


# ------------------------------------------------------------------ config files

# TrainConfig fields settable from a config file (all but the seed), each
# parsed as the type of its default
_TRAIN_KEYS = {f.name: type(f.default) for f in dataclasses.fields(TrainConfig)
               if f.name != "seed"}


def read_config_file(path) -> dict:
    """`key = value` per line, each key at most once; blank lines and '#'
    comments are ignored."""
    out, first_line = {}, {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not valid UTF-8: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        key, sep, value = text.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise DataError(f"{path}:{lineno}: expected `key = value`")
        if key not in _TRAIN_KEYS:
            raise DataError(
                f"{path}:{lineno}: unknown key {key!r} "
                f"(expected one of {', '.join(sorted(_TRAIN_KEYS))})")
        if key in first_line:
            raise DataError(f"{path}:{lineno}: repeated key {key!r} "
                            f"(first set on line {first_line[key]})")
        first_line[key] = lineno
        try:
            out[key] = _TRAIN_KEYS[key](value)
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad value for {key}: {value!r}")
    return out


def _merge_train_config(args) -> TrainConfig:
    """Defaults < config file < explicit flags."""
    merged = {}
    file_cfg = read_config_file(args.config) if args.config else {}
    for field in dataclasses.fields(TrainConfig):
        if field.name == "seed":
            continue
        flag = getattr(args, field.name, None)
        if flag is not None:
            merged[field.name] = flag
        elif field.name in file_cfg:
            merged[field.name] = file_cfg[field.name]
    try:
        return TrainConfig(seed=args.seed, **merged)
    except ValueError as exc:
        raise DataError(str(exc))


# ------------------------------------------------------------------ commands

def cmd_vocab(args) -> int:
    corpus = load_dataset(args.dataset)
    try:
        vocab = build_vocab(corpus.records, min_freq=args.min_freq,
                            delimiters=args.delimiters)
    except ValueError as exc:              # --min-freq below 1, empty --delimiters
        raise DataError(str(exc)) from exc
    write_manifest((args.out, vocab.save(args.out)), command="vocab",
                   config={"min_freq": args.min_freq, "delimiters": args.delimiters},
                   inputs={"dataset": (args.dataset, corpus.sha256)})
    print(f"wrote {vocab.size} tokens to {args.out}")
    return 0


def cmd_train(args) -> int:
    corpus = load_dataset(args.dataset)
    vocab = Vocabulary.load(args.vocab)
    inputs = (load_manifest(args.vocab) or {}).get("inputs", {})
    dataset = inputs.get("dataset", {}) if isinstance(inputs, dict) else None
    if not isinstance(dataset, dict):
        raise DataError(f"{manifest_path_for(args.vocab)}: manifest `inputs.dataset` "
                        f"is not a JSON object")
    if dataset.get("sha256") not in (None, corpus.sha256):
        _warn(f"vocabulary {args.vocab} was built from a different dataset "
              f"than {args.dataset} (manifest hash mismatch)")
    tcfg = _merge_train_config(args)
    bcfg = BackboneConfig(variant=args.backbone, vocab_size=vocab.size)

    written = {}   # batch index -> SHA-256 of its checkpoint: each state is written once

    def save(backbone, batch):
        if batch not in written:
            # the previous run's manifest must not outlive the checkpoint it describes
            with contextlib.suppress(FileNotFoundError):
                os.remove(manifest_path_for(args.out))
            written[batch] = save_checkpoint(args.out, backbone, vocab)
        return written[batch]

    result = train(corpus, vocab, bcfg, tcfg, checkpoint_cb=lambda bb, i, reason: save(bb, i))
    checkpoint_sha256 = save(result.backbone, result.n_batches)
    loss_csv = args.loss_csv or f"{args.out}.loss.csv"
    loss_csv_sha256 = write_loss_csv(loss_csv, result.losses)
    write_manifest(
        (args.out, checkpoint_sha256), command="train", seed=args.seed,
        config={"backbone": args.backbone, **dataclasses.asdict(tcfg)},
        inputs={"dataset": (args.dataset, corpus.sha256),
                "vocab": (args.vocab, vocab.sha256)},
        outputs={"loss_csv": (loss_csv, loss_csv_sha256)},
    )
    last = f"{result.losses[-1]:.6f}" if result.losses else "n/a"
    print(f"trained {args.backbone} for {result.n_batches} batches "
          f"(final loss {last}); checkpoint {args.out}")
    return 0


def _parse_opt_pairs(items) -> tuple:
    pairs = []
    for item in items:
        parts = item.split(",")
        if len(parts) != 2 or not all(p in OPT_LEVELS for p in parts):
            raise DataError(
                f"bad optimization pair {item!r}: expected LOW,HIGH with levels "
                f"from {', '.join(OPT_LEVELS)}")
        if (parts[0], parts[1]) in pairs:
            raise DataError(f"duplicate optimization pair {item!r}")
        pairs.append((parts[0], parts[1]))
    return tuple(pairs)


def cmd_eval(args) -> int:
    if args.seed < 0:
        raise DataError(f"--seed must be >= 0, got {args.seed}")
    corpus = load_dataset(args.dataset)
    backbone, vocab = load_checkpoint(args.checkpoint)
    pairs = _parse_opt_pairs(args.opt_pairs) if args.opt_pairs else DEFAULT_OPT_PAIRS
    if any(k < 1 for k in args.ks) or len(set(args.ks)) != len(args.ks):
        raise DataError("recall cutoffs must be distinct and >= 1")
    if args.pool_size < 1:
        raise DataError("pool size must be >= 1")
    report = evaluate_model(backbone, vocab, corpus, opt_pairs=pairs,
                            n=args.pool_size, ks=tuple(args.ks), seed=args.seed)
    payload = report.to_json_dict(checkpoint_sha256=backbone.checkpoint_sha256)
    json_path, txt_path = f"{args.out}.json", f"{args.out}.txt"
    json_sha256 = write_atomic(
        json_path, (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8"))
    table = report.format_table()
    txt_sha256 = write_atomic(txt_path, table.encode("utf-8"))
    write_manifest((json_path, json_sha256), command="eval", seed=args.seed,
                   config={"pool_size": args.pool_size,
                           "opt_pairs": [f"{a},{b}" for a, b in pairs],
                           "ks": list(args.ks)},
                   inputs={"dataset": (args.dataset, corpus.sha256),
                           "checkpoint": (args.checkpoint, backbone.checkpoint_sha256)},
                   outputs={"table": (txt_path, txt_sha256)})
    print(table, end="")
    return 0


def _encode_all(backbone, vocab, records):
    cfg, rows = backbone.cfg, {}
    return [encode_function(vocab, r, k_tokens=cfg.tokens_per_instruction,
                            max_positions=cfg.max_positions, rows=rows) for r in records]


def cmd_embed(args) -> int:
    corpus = load_dataset(args.dataset)
    backbone, vocab = load_checkpoint(args.checkpoint)
    matrix = backbone.embed_matrix(_encode_all(backbone, vocab, corpus.records))
    lines = "".join(json.dumps({
        "project": rec.project, "binary": rec.binary,
        "function": rec.function_name, "opt_level": rec.opt_level,
        "embedding": row.tolist(),
    }, sort_keys=True) + "\n" for rec, row in zip(corpus.records, matrix))
    write_manifest((args.out, write_atomic(args.out, lines.encode("utf-8"))), command="embed",
                   config={"backbone": backbone.cfg.variant},
                   inputs={"dataset": (args.dataset, corpus.sha256),
                           "checkpoint": (args.checkpoint, backbone.checkpoint_sha256)})
    print(f"wrote {len(corpus.records)} embeddings to {args.out}")
    return 0


def cmd_search(args) -> int:
    if args.top_k < 1:
        raise DataError("--top-k must be >= 1")
    backbone, vocab = load_checkpoint(args.checkpoint)
    if args.vocab:
        external = Vocabulary.load(args.vocab)
        if external.file_bytes() != vocab.file_bytes():
            _warn(f"{args.vocab} differs from the vocabulary embedded in "
                  f"{args.checkpoint}; using the embedded one")
    queries = load_dataset(args.query).records
    if len(queries) != 1:
        raise DataError(
            f"query file must hold exactly one function, got {len(queries)}")
    # the sidecar is keyed on digests of the bytes this call read: the checkpoint
    # load_checkpoint verified, and the index bytes hashed for a hit or parsed on a miss
    cache = embcache.sidecar_path(args.index)
    checkpoint = bytes.fromhex(backbone.checkpoint_sha256)
    hit = embcache.load_rows(cache, (checkpoint, bytes.fromhex(file_sha256(args.index))),
                             backbone.cfg.output_dim)
    if hit is None:
        index = load_dataset(args.index)
        if not index.records:
            _warn("search index is empty; no results")
            return 0
    q = backbone.embed_matrix(_encode_all(backbone, vocab, queries))
    if hit is None:
        t = backbone.embed_matrix(_encode_all(backbone, vocab, index.records))
        names = [[r.project, r.binary, r.function_name, r.opt_level] for r in index.records]
        try:
            embcache.save_rows(cache, (checkpoint, bytes.fromhex(index.sha256)), t, names)
        except OSError as exc:
            _warn(f"could not write the index embedding cache {cache}: "
                  f"{exc.strerror or exc}")
    else:
        t, names = hit
    scores = cosine_matrix(q, t)[0]
    order = descending_order(scores)[:min(args.top_k, len(names))]
    for rank, idx in enumerate(order, start=1):
        print(f"{rank}\t{scores[idx]:.6f}\t" + "\t".join(names[idx]))
    return 0


# ------------------------------------------------------------------ parser

def build_parser() -> _Parser:
    parser = _Parser(prog="asmsim",
                     description="instruction-grid similarity models for "
                                 "cross-optimization binary function retrieval")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("vocab", help="build a token vocabulary from a dataset")
    p.add_argument("dataset", help="JSONL function dataset")
    p.add_argument("--out", required=True, help="vocabulary file to write")
    p.add_argument("--min-freq", type=int, default=DEFAULT_MIN_FREQ,
                   help="keep tokens seen at least this often (default %(default)s)")
    p.add_argument("--delimiters", default=DEFAULT_DELIMITERS,
                   help="token split characters")
    p.set_defaults(func=cmd_vocab)

    p = sub.add_parser("train", help="train a siamese backbone")
    p.add_argument("dataset")
    p.add_argument("vocab")
    p.add_argument("--out", required=True, help="checkpoint file to write")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--backbone", choices=VARIANTS, default="textcnn")
    p.add_argument("--config", help="key = value file mirroring training fields")
    p.add_argument("--learning-rate", type=float, dest="learning_rate")
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--epochs", type=int)
    p.add_argument("--negatives", type=int,
                   help="negative pairs sampled per function")
    p.add_argument("--margin", type=float)
    p.add_argument("--checkpoint-every", type=int, dest="checkpoint_every")
    p.add_argument("--loss-csv", dest="loss_csv",
                   help="loss trace path (default: <out>.loss.csv)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="retrieval metrics on optimization-pair pools")
    p.add_argument("dataset")
    p.add_argument("checkpoint")
    p.add_argument("--out", required=True,
                   help="report prefix; writes <out>.json and <out>.txt")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pool-size", type=int, default=DEFAULT_POOL_SIZE,
                   dest="pool_size")
    p.add_argument("--opt-pairs", nargs="+", dest="opt_pairs", metavar="LOW,HIGH",
                   help="optimization pairs (default: the six cross-level pairs)")
    p.add_argument("--ks", nargs="+", type=int, default=list(DEFAULT_KS),
                   help="recall cutoffs")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("embed", help="embed every function in a dataset")
    p.add_argument("dataset")
    p.add_argument("checkpoint")
    p.add_argument("--out", required=True, help="JSONL embeddings to write")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("search", help="rank an index dataset against one query")
    p.add_argument("checkpoint")
    p.add_argument("--query", required=True, help="JSONL file with one function")
    p.add_argument("--index", required=True, help="JSONL dataset to search")
    p.add_argument("--top-k", type=int, default=10, dest="top_k")
    p.add_argument("--vocab", help="optional external vocabulary to cross-check")
    p.set_defaults(func=cmd_search)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        name = getattr(exc, "filename", None)
        detail = exc.strerror or str(exc)
        print(f"error: {detail}: {name}" if name else f"error: {detail}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
