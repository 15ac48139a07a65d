"""Command-line interface.

One executable with subcommands covering the pipeline: stats, validate,
convert, split, iaa, tfidf, train, eval, crossregion, export-embeddings.
Human-readable tables go to stdout; machine-readable JSON/TSV files go to
the output directory with a run manifest, once everything is computed.
Exit codes: 0 on success, 1 on data or validation errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import logging
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from . import analysis, brat, corpus, metrics, model, training
from .errors import ConfigError, DataError, HistnerError, TagError

logger = logging.getLogger("histner")


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _json(payload: dict | list) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_manifest(args, config: dict, inputs: list[Path]) -> None:
    """``manifest.json`` in the command's ``--out`` directory."""
    manifest = {
        "command": args.command,
        "config": config,
        "inputs": [{"path": str(p), "sha256": _sha256(p)} for p in inputs],
        "seed": args.seed,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "version": __version__,
    }
    (Path(args.out) / "manifest.json").write_text(_json(manifest), encoding="utf-8")


def _inputs(args) -> list[Path]:
    """The files a command read through ``--input``, ``--input-b``,
    ``--checkpoint`` and ``--split-file``, in that order."""
    paths = (getattr(args, name, None) for name in ("input", "input_b", "checkpoint", "split_file"))
    return [Path(p) for p in paths if p]


def _publish(args, files: dict, config: dict, inputs: list[Path]) -> None:
    """Write ``files`` into ``--out``, if given, and then the manifest.

    Each command calls this once, after it has computed everything it
    writes, so a command that fails creates no ``--out``. A file's content
    is its text, or a writer called with the file's path.
    """
    if not args.out:
        return
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, content in files.items():
        if isinstance(content, str):
            (out / name).write_text(content, encoding="utf-8")
        else:
            content(out / name)
    write_manifest(args, config, inputs)


def _read_json_object(path: str) -> dict:
    try:
        payload = json.loads(corpus.read_text(path))
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
        raise DataError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(payload, dict):
        raise DataError(f"{path}: must hold a JSON object, got {type(payload).__name__}")
    return payload


def _config_section(file_cfg: dict, section: str, cls) -> dict:
    values = file_cfg.get(section, {})
    if not isinstance(values, dict):
        raise ConfigError(f"config section {section!r} must be a JSON object")
    unknown = sorted(set(values) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in config section {section!r}")
    return dict(values)


def _train_configs(args) -> tuple[model.TaggerConfig, training.TrainConfig]:
    file_cfg = _read_json_object(args.config) if args.config else {}
    unknown = sorted(set(file_cfg) - {"tagger", "train"})
    if unknown:
        raise ConfigError(f"unknown config section {unknown[0]!r}")
    tagger_kwargs = _config_section(file_cfg, "tagger", model.TaggerConfig)
    train_kwargs = _config_section(file_cfg, "train", training.TrainConfig)
    # flags override the config file; each flag's dest is its field's name
    for f in dataclasses.fields(training.TrainConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            train_kwargs[f.name] = value
    if args.seed is not None:
        tagger_kwargs["seed"] = args.seed
    return model.TaggerConfig(**tagger_kwargs), training.TrainConfig(**train_kwargs)


def _split_corpus(args, docs: corpus.Corpus) -> corpus.Splits:
    if args.split_file:
        return corpus.apply_split_file(docs, _read_json_object(args.split_file))
    return corpus.split_dataset(docs, corpus.SplitSpec(seed=args.seed or 0))


def _load_for_model(path: str) -> corpus.Corpus:
    """A JSONL corpus that the model can encode; an empty corpus or its
    first violation is a ``DataError`` naming the file, raised before
    anything is split or written."""
    docs = corpus.load_jsonl(path)
    if not docs:
        raise DataError(f"{path}: no sentences")
    violations = corpus.validate_corpus(docs)
    if violations:
        raise DataError(f"{path}: {violations[0]}")
    return docs


def _sentences(docs: corpus.Corpus) -> list[corpus.Sentence]:
    return list(corpus.iter_sentences(docs))


def _naming_unknown_tag(call, *layers: tuple[str, corpus.Corpus]):
    """``call()``, where an unknown tag is a ``DataError`` naming the file, document and
    sentence of the first sentence, in file order and layer by layer, that holds one."""
    try:
        return call()
    except TagError as exc:
        raise DataError(next((f"{path}: {v}" for path, docs in layers
                              for v in corpus.validate_corpus(docs)
                              if v.message.startswith("unknown tag")), str(exc))) from exc


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------

def cmd_stats(args) -> int:
    docs = corpus.load_jsonl(args.input)
    stats = _naming_unknown_tag(lambda: corpus.corpus_stats(docs), (args.input, docs))
    print(stats.render_text())
    _publish(args, {"stats.json": _json(stats.to_json_dict())}, {"input": args.input},
             _inputs(args))
    return 0


def cmd_validate(args) -> int:
    violations = corpus.validate_corpus(corpus.load_jsonl(args.input))
    _publish(args, {"violations.json": _json([str(v) for v in violations])},
             {"input": args.input}, _inputs(args))
    if violations:
        for v in violations:
            print(str(v), file=sys.stderr)
        print(f"{len(violations)} violations", file=sys.stderr)
        return 1
    print("ok")
    return 0


def cmd_convert(args) -> int:
    if args.source_format == "brat":
        docs, inputs = brat.load(args.input, args.region)
    else:
        docs, inputs = corpus.load_jsonl(args.input), _inputs(args)
    dumps = corpus.dumps_jsonl if args.target_format == "jsonl" else corpus.dumps_conll
    name = f"corpus.{args.target_format}"
    _publish(args, {name: dumps(docs)},
             {"from": args.source_format, "to": args.target_format,
              "input": args.input, "region": args.region},
             inputs)
    print(f"wrote {Path(args.out) / name}")
    return 0


def cmd_split(args) -> int:
    parts = _split_corpus(args, corpus.load_jsonl(args.input)).parts()
    _publish(args, {f"{name}.jsonl": corpus.dumps_jsonl(part) for name, part in parts.items()},
             {"input": args.input, "split_file": args.split_file}, _inputs(args))
    print(json.dumps({name: sum(len(d.sentences) for d in part) for name, part in parts.items()}))
    return 0


def cmd_iaa(args) -> int:
    docs_a, docs_b = corpus.load_jsonl(args.input), corpus.load_jsonl(args.input_b)
    report = _naming_unknown_tag(lambda: metrics.iaa_report(docs_a, docs_b),
                                 (args.input, docs_a), (args.input_b, docs_b))
    print(report.render_text())
    _publish(args, {"iaa.json": _json(report.to_json_dict())},
             {"input": args.input, "input_b": args.input_b}, _inputs(args))
    return 0


def cmd_tfidf(args) -> int:
    tsv = analysis.render_tsv(analysis.tfidf_top_k(corpus.load_jsonl(args.input), args.k))
    print(tsv, end="")
    _publish(args, {"tfidf.tsv": tsv}, {"input": args.input, "k": args.k}, _inputs(args))
    return 0


def _eval_files(report) -> dict[str, str]:
    return {"eval.json": _json(report.to_json_dict()), "eval.tsv": report.render_text() + "\n"}


def cmd_train(args) -> int:
    docs = _load_for_model(args.input)
    splits = _split_corpus(args, docs)
    if not splits.test:
        raise DataError("empty test split")
    tagger_cfg, train_cfg = _train_configs(args)
    result = training.train(
        _sentences(splits.train), _sentences(splits.valid), tagger_cfg, train_cfg
    )
    report = training.evaluate(result.best_params, _sentences(splits.test))
    _publish(args,
             {"history.json": result.history_json(),
              "checkpoint_best.npz": result.best_params.save,
              "checkpoint_final.npz": result.final_params.save,
              **_eval_files(report)},
             {"tagger": vars(tagger_cfg), "train": vars(train_cfg),
              "input": args.input, "split_file": args.split_file},
             _inputs(args))
    last = result.history[-1]
    print(f"best epoch {result.best_epoch}: valid F1 {max(h['valid_f1'] for h in result.history):.4f}")
    print(f"final: l_y {last['l_y']:.4f}  l_d {last['l_d']:.4f}")
    print(report.render_text())
    return 0


def cmd_eval(args) -> int:
    docs = _load_for_model(args.input)
    params = model.TaggerParams.load(args.checkpoint)
    report = training.evaluate(params, _sentences(docs))
    _publish(args, _eval_files(report), {"input": args.input, "checkpoint": args.checkpoint},
             _inputs(args))
    print(report.render_text())
    return 0


def cmd_crossregion(args) -> int:
    docs = _load_for_model(args.input)
    splits = _split_corpus(args, docs)
    tagger_cfg, train_cfg = _train_configs(args)
    result = training.inter_regional(splits, tagger_cfg, train_cfg)
    rows = [
        "\t".join([r.display] + [f"{v:.6f}" for v in result.matrix[i]])
        for i, r in enumerate(result.regions)
    ]
    _publish(args,
             {"crossregion.json": _json(result.to_json_dict()),
              "crossregion.tsv": "\n".join(rows) + "\n"},
             {"tagger": vars(tagger_cfg), "train": vars(train_cfg),
              "input": args.input, "split_file": args.split_file},
             _inputs(args))
    print(result.render_text())
    return 0


def cmd_export_embeddings(args) -> int:
    docs = _load_for_model(args.input)
    params = model.TaggerParams.load(args.checkpoint)
    tsv = training.dumps_embeddings(params, _sentences(docs))
    _publish(args, {"embeddings.tsv": tsv},
             {"input": args.input, "checkpoint": args.checkpoint}, _inputs(args))
    print(f"wrote {Path(args.out) / 'embeddings.tsv'}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="histner", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_required=False):
        p.add_argument("--input", required=True, help="input corpus (JSONL)")
        p.add_argument("--out", required=out_required, help="output directory")
        p.add_argument("--seed", type=int, default=None)

    def train_flags(p):
        p.add_argument("--mode", choices=training.MODES, default=None)
        p.add_argument("--lambda", dest="lam", type=float, default=None)
        p.add_argument("--epochs", type=int, default=None)
        p.add_argument("--lr", type=float, default=None)
        p.add_argument("--batch", dest="batch_size", type=int, default=None)
        p.add_argument("--clip", dest="clip_norm", type=float, default=None)
        p.add_argument("--config", default=None, help="JSON config file; flags override")
        p.add_argument("--split-file", dest="split_file", default=None)

    p = sub.add_parser("stats", help="entity statistics table")
    common(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("validate", help="report corpus violations")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("convert", help="convert between corpus formats")
    common(p, out_required=True)
    p.add_argument("--from", dest="source_format", choices=["brat", "jsonl"], required=True)
    p.add_argument("--to", dest="target_format", choices=["jsonl", "conll"], required=True)
    p.add_argument("--region", default=None,
                   help="region for BRAT input (else taken from the parent directory name)")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("split", help="write train/valid/test JSONL files")
    common(p, out_required=True)
    p.add_argument("--split-file", dest="split_file", default=None)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("iaa", help="inter-annotator agreement report")
    common(p)
    p.add_argument("--input-b", required=True, help="second annotation layer (JSONL)")
    p.set_defaults(func=cmd_iaa)

    p = sub.add_parser("tfidf", help="per-region TF-IDF ranking")
    common(p)
    p.add_argument("--k", type=int, default=5)
    p.set_defaults(func=cmd_tfidf)

    p = sub.add_parser("train", help="train a tagger")
    common(p, out_required=True)
    train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    common(p, out_required=True)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("crossregion", help="inter-regional train/eval matrix")
    common(p, out_required=True)
    train_flags(p)
    p.set_defaults(func=cmd_crossregion)

    p = sub.add_parser("export-embeddings", help="per-sentence mean feature vectors")
    common(p, out_required=True)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_export_embeddings)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        level = os.environ.get("HISTNER_LOG", "WARNING")
        # a known name maps to its number; setLevel raises ValueError on any other
        if not isinstance(logging.getLevelName(level.upper()), int):
            raise ConfigError(f"HISTNER_LOG: unknown logging level {level!r}")
        # basicConfig installs a handler once per process; the level is set on every call
        logging.basicConfig()
        logger.setLevel(level.upper())
        # every command records its seed, so each takes the split seed's rule
        corpus.check_config(corpus.SplitSpec(seed=args.seed or 0))
        return args.func(args)
    except (HistnerError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
