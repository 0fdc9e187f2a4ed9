"""Command-line surface: vocab, train, eval, embed, and search.

Every command is one process run producing files plus a manifest sidecar;
identical inputs and seed give byte-identical artifacts (timestamps live
only in manifests). Exit codes: 0 success, 1 usage, 2 data, 3 numeric.

`search` also keeps `<index>.embcache` next to its index: the index's
embeddings and printed names under that checkpoint, reused by the next search
of the pair without parsing the index (see `embcache`). It is a cache, not an
artifact, so it carries no manifest; a search that cannot write it warns and
still answers.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import __version__, embcache
from .corpus import OPT_LEVELS, load_dataset
from .errors import DataError, NumericError
from .evaluate import (
    DEFAULT_KS, DEFAULT_OPT_PAIRS, DEFAULT_POOL_SIZE, cosine_matrix,
    descending_order, evaluate_model,
)
from .manifest import file_sha256, load_manifest, write_manifest
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

# TrainConfig fields settable from a config file, with their parsers
_TRAIN_KEYS = {
    "learning_rate": float,
    "batch_size": int,
    "epochs": int,
    "negatives": int,
    "margin": float,
    "checkpoint_every": int,
}


def read_config_file(path) -> dict:
    """`key = value` per line; blank lines and '#' comments are ignored."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
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
    vocab.save(args.out)
    write_manifest(args.out, command="vocab",
                   config={"min_freq": args.min_freq, "delimiters": args.delimiters},
                   inputs={"dataset": args.dataset})
    print(f"wrote {vocab.size} tokens to {args.out}")
    return 0


def cmd_train(args) -> int:
    corpus = load_dataset(args.dataset)
    vocab = Vocabulary.load(args.vocab)
    doc = load_manifest(args.vocab)
    if doc is not None:
        recorded = doc.get("inputs", {}).get("dataset", {}).get("sha256")
        if recorded is not None and recorded != file_sha256(args.dataset):
            _warn(f"vocabulary {args.vocab} was built from a different dataset "
                  f"than {args.dataset} (manifest hash mismatch)")
    tcfg = _merge_train_config(args)
    bcfg = BackboneConfig(variant=args.backbone, vocab_size=vocab.size)

    def save_cb(backbone, batch_index, reason):
        save_checkpoint(args.out, backbone, vocab)

    result = train(corpus, vocab, bcfg, tcfg, checkpoint_cb=save_cb)
    save_checkpoint(args.out, result.backbone, vocab)
    loss_csv = args.loss_csv or f"{args.out}.loss.csv"
    write_loss_csv(loss_csv, result.losses)
    write_manifest(
        args.out, command="train", seed=args.seed,
        config={"backbone": args.backbone, **dataclasses.asdict(tcfg)},
        inputs={"dataset": args.dataset, "vocab": args.vocab},
        outputs={"loss_csv": loss_csv},
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
        pairs.append((parts[0], parts[1]))
    return tuple(pairs)


def cmd_eval(args) -> int:
    corpus = load_dataset(args.dataset)
    backbone, vocab = load_checkpoint(args.checkpoint)
    pairs = _parse_opt_pairs(args.opt_pairs) if args.opt_pairs else DEFAULT_OPT_PAIRS
    if any(k < 1 for k in args.ks):
        raise DataError("recall cutoffs must be >= 1")
    if args.pool_size < 1:
        raise DataError("pool size must be >= 1")
    report = evaluate_model(backbone, vocab, corpus, opt_pairs=pairs,
                            n=args.pool_size, ks=tuple(args.ks), seed=args.seed)
    payload = report.to_json_dict(checkpoint_sha256=file_sha256(args.checkpoint))
    json_path, txt_path = f"{args.out}.json", f"{args.out}.txt"
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    table = report.format_table()
    with open(txt_path, "w", encoding="utf-8") as fh:
        fh.write(table)
    write_manifest(json_path, command="eval", seed=args.seed,
                   config={"pool_size": args.pool_size,
                           "opt_pairs": [f"{a},{b}" for a, b in pairs],
                           "ks": list(args.ks)},
                   inputs={"dataset": args.dataset, "checkpoint": args.checkpoint},
                   outputs={"table": txt_path})
    print(table, end="")
    return 0


def _encode_all(backbone, vocab, records):
    cfg = backbone.cfg
    return [encode_function(vocab, r, k_tokens=cfg.tokens_per_instruction,
                            max_positions=cfg.max_positions) for r in records]


def cmd_embed(args) -> int:
    corpus = load_dataset(args.dataset)
    backbone, vocab = load_checkpoint(args.checkpoint)
    matrix = backbone.embed_matrix(_encode_all(backbone, vocab, corpus.records))
    with open(args.out, "w", encoding="utf-8") as fh:
        for rec, row in zip(corpus.records, matrix):
            fh.write(json.dumps({
                "project": rec.project, "binary": rec.binary,
                "function": rec.function_name, "opt_level": rec.opt_level,
                "embedding": [float(v) for v in row],
            }, sort_keys=True) + "\n")
    write_manifest(args.out, command="embed",
                   config={"backbone": backbone.cfg.variant},
                   inputs={"dataset": args.dataset, "checkpoint": args.checkpoint})
    print(f"wrote {len(corpus.records)} embeddings to {args.out}")
    return 0


def cmd_search(args) -> int:
    if args.top_k < 1:
        raise DataError("--top-k must be >= 1")
    # the sidecar key is taken before and after the files are read, so it
    # describes the bytes this call loaded or it is not used
    key = embcache.cache_key(args.checkpoint, args.index)
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
    cache = embcache.sidecar_path(args.index)
    hit = embcache.load_rows(cache, key, backbone.cfg.output_dim) if key else None
    if hit is not None and key != embcache.cache_key(args.checkpoint, args.index):
        hit = key = None            # a file changed under the reads: read the index itself
    if hit is None:
        index = load_dataset(args.index).records
        if not index:
            _warn("search index is empty; no results")
            return 0
        if key != embcache.cache_key(args.checkpoint, args.index):
            key = None
    q = backbone.embed_matrix(_encode_all(backbone, vocab, queries))
    if hit is None:
        t = backbone.embed_matrix(_encode_all(backbone, vocab, index))
        names = [[r.project, r.binary, r.function_name, r.opt_level] for r in index]
        if key is not None:
            try:
                embcache.save_rows(cache, key, t, names)
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
