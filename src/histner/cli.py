"""Command-line interface.

One executable with subcommands covering the pipeline: stats, validate,
convert, split, iaa, tfidf, train, eval, crossregion, export-embeddings.
Human-readable tables go to stdout; machine-readable JSON/TSV files go to
the output directory, accompanied by a run manifest. Exit codes: 0 on
success, 1 on data or validation errors, 2 on usage errors.
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
from . import analysis, corpus, metrics, model, training
from .errors import ConfigError, DataError, HistnerError

logger = logging.getLogger("histner")


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(path: Path, payload: dict | list) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


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
    _write_json(Path(args.out) / "manifest.json", manifest)


def _ensure_out(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


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
    """A JSONL corpus that the model can encode; its first violation is a
    ``DataError`` naming the file, raised before anything is split or written."""
    docs = corpus.load_jsonl(path)
    violations = corpus.validate_corpus(docs)
    if violations:
        raise DataError(f"{path}: {violations[0]}")
    return docs


def _sentences(docs: corpus.Corpus) -> list[corpus.Sentence]:
    return list(corpus.iter_sentences(docs))


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------

def cmd_stats(args) -> int:
    docs = corpus.load_jsonl(args.input)
    stats = corpus.corpus_stats(docs)
    print(stats.render_text())
    if args.out:
        out = _ensure_out(args)
        _write_json(out / "stats.json", stats.to_json_dict())
        write_manifest(args, {"input": args.input}, [Path(args.input)])
    return 0


def cmd_validate(args) -> int:
    docs = corpus.load_jsonl(args.input)
    violations = corpus.validate_corpus(docs)
    if args.out:
        out = _ensure_out(args)
        _write_json(out / "violations.json", [str(v) for v in violations])
        write_manifest(args, {"input": args.input}, [Path(args.input)])
    if violations:
        for v in violations:
            print(str(v), file=sys.stderr)
        print(f"{len(violations)} violations", file=sys.stderr)
        return 1
    print("ok")
    return 0


def _collect_brat_pairs(root: Path) -> list[tuple[Path, Path]]:
    if root.is_file():
        txt = root if root.suffix == ".txt" else root.with_suffix(".txt")
        ann = txt.with_suffix(".ann")
        if not (txt.exists() and ann.exists()):
            raise DataError(f"missing .txt/.ann pair for {root}")
        return [(txt, ann)]
    pairs = []
    for txt in sorted(root.rglob("*.txt")):
        ann = txt.with_suffix(".ann")
        if ann.exists():
            pairs.append((txt, ann))
    if not pairs:
        raise DataError(f"no .txt/.ann pairs under {root}")
    return pairs


def cmd_convert(args) -> int:
    out = _ensure_out(args)
    inputs: list[Path] = []
    if args.source_format == "brat":
        pairs = _collect_brat_pairs(Path(args.input))
        docs: corpus.Corpus = []
        for txt, ann in pairs:
            inputs.extend([txt, ann])
            if args.region:
                region = corpus.Region.parse(args.region)
            else:
                region = corpus.Region.parse(txt.parent.name)
            docs.append(corpus.document_from_brat(
                txt.stem, region, corpus.read_text(txt), corpus.read_text(ann)))
        docs.sort(key=lambda d: d.id)
    else:
        docs = corpus.load_jsonl(args.input)
        inputs.append(Path(args.input))
    if args.target_format == "jsonl":
        target = out / "corpus.jsonl"
        corpus.save_jsonl(docs, target)
    else:
        target = out / "corpus.conll"
        corpus.export_conll(docs, target)
    write_manifest(args,
                   {"from": args.source_format, "to": args.target_format,
                    "input": args.input, "region": args.region},
                   inputs)
    print(f"wrote {target}")
    return 0


def cmd_split(args) -> int:
    docs = corpus.load_jsonl(args.input)
    splits = _split_corpus(args, docs)
    out = _ensure_out(args)
    for name, part in splits.parts().items():
        corpus.save_jsonl(part, out / f"{name}.jsonl")
    write_manifest(args,
                   {"input": args.input, "split_file": args.split_file},
                   [Path(args.input)])
    counts = {name: sum(len(d.sentences) for d in part) for name, part in splits.parts().items()}
    print(json.dumps(counts))
    return 0


def cmd_iaa(args) -> int:
    layer_a = corpus.load_jsonl(args.input)
    layer_b = corpus.load_jsonl(args.input_b)
    report = metrics.iaa_report(layer_a, layer_b)
    print(report.render_text())
    if args.out:
        out = _ensure_out(args)
        _write_json(out / "iaa.json", report.to_json_dict())
        write_manifest(args, {"input": args.input, "input_b": args.input_b},
                       [Path(args.input), Path(args.input_b)])
    return 0


def cmd_tfidf(args) -> int:
    docs = corpus.load_jsonl(args.input)
    ranking = analysis.tfidf_top_k(docs, args.k)
    tsv = analysis.render_tsv(ranking)
    print(tsv, end="")
    if args.out:
        out = _ensure_out(args)
        (out / "tfidf.tsv").write_text(tsv, encoding="utf-8")
        write_manifest(args, {"input": args.input, "k": args.k},
                       [Path(args.input)])
    return 0


def cmd_train(args) -> int:
    docs = _load_for_model(args.input)
    splits = _split_corpus(args, docs)
    tagger_cfg, train_cfg = _train_configs(args)
    result = training.train(
        _sentences(splits.train), _sentences(splits.valid), tagger_cfg, train_cfg
    )
    out = _ensure_out(args)
    (out / "history.json").write_text(result.history_json(), encoding="utf-8")
    result.best_params.save(out / "checkpoint_best.npz")
    result.final_params.save(out / "checkpoint_final.npz")
    test_sentences = _sentences(splits.test)
    report = training.evaluate(result.best_params, test_sentences or _sentences(splits.valid))
    _write_json(out / "eval.json", report.to_json_dict())
    (out / "eval.tsv").write_text(report.render_text() + "\n", encoding="utf-8")
    write_manifest(args,
                   {"tagger": vars(tagger_cfg), "train": vars(train_cfg),
                    "input": args.input, "split_file": args.split_file},
                   [Path(args.input)])
    last = result.history[-1]
    print(f"best epoch {result.best_epoch}: valid F1 {max(h['valid_f1'] for h in result.history):.4f}")
    print(f"final: l_y {last['l_y']:.4f}  l_d {last['l_d']:.4f}")
    print(report.render_text())
    return 0


def cmd_eval(args) -> int:
    docs = _load_for_model(args.input)
    params = model.TaggerParams.load(args.checkpoint)
    report = training.evaluate(params, _sentences(docs))
    out = _ensure_out(args)
    _write_json(out / "eval.json", report.to_json_dict())
    (out / "eval.tsv").write_text(report.render_text() + "\n", encoding="utf-8")
    write_manifest(args, {"input": args.input, "checkpoint": args.checkpoint},
                   [Path(args.input), Path(args.checkpoint)])
    print(report.render_text())
    return 0


def cmd_crossregion(args) -> int:
    docs = _load_for_model(args.input)
    splits = _split_corpus(args, docs)
    tagger_cfg, train_cfg = _train_configs(args)
    result = training.inter_regional(splits, tagger_cfg, train_cfg)
    out = _ensure_out(args)
    _write_json(out / "crossregion.json", result.to_json_dict())
    rows = [
        "\t".join([r.display] + [f"{v:.6f}" for v in result.matrix[i]])
        for i, r in enumerate(result.regions)
    ]
    (out / "crossregion.tsv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    write_manifest(args,
                   {"tagger": vars(tagger_cfg), "train": vars(train_cfg),
                    "input": args.input},
                   [Path(args.input)])
    print(result.render_text())
    return 0


def cmd_export_embeddings(args) -> int:
    docs = _load_for_model(args.input)
    params = model.TaggerParams.load(args.checkpoint)
    out = _ensure_out(args)
    target = out / "embeddings.tsv"
    training.export_embeddings(params, _sentences(docs), target)
    write_manifest(args,
                   {"input": args.input, "checkpoint": args.checkpoint},
                   [Path(args.input), Path(args.checkpoint)])
    print(f"wrote {target}")
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
    logging.basicConfig(level=os.environ.get("HISTNER_LOG", "WARNING").upper())
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # every command records its seed, so each takes the split seed's rule
        corpus.check_config(corpus.SplitSpec(seed=args.seed or 0))
        return args.func(args)
    except (HistnerError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
