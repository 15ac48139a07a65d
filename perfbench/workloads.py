"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` (the program
only ever sees the generated corpus files and checkpoint), runs one
closed-loop pass through the library's public functions in ``run``, and
checks the pass's outputs in ``check``. Every call into the library goes
through a module attribute, so the span recorder's wrappers see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from histner import analysis, cli, corpus, metrics, model, synthetic, training

V32K = 2**15


class Ops:
    """Counts operations (top-level library calls and correctness checks)
    and times each call into the pass phase it belongs to."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.seconds: dict[str, float] = defaultdict(float)

    def call(self, phase: str, fn, *args, **kwargs):
        self.attempted += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.failed += 1
            raise
        finally:
            self.seconds[phase] += time.perf_counter() - start

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


@dataclass
class PassResult:
    model_tokens: int  # tokens through the pass's "model" phase
    f1: float
    #: outputs that must be identical in every pass of one run
    outputs: dict
    info: dict = field(default_factory=dict)


def _sentences(docs) -> list[corpus.Sentence]:
    return list(corpus.iter_sentences(docs))


def _n_tokens(sentences) -> int:
    return sum(len(s) for s in sentences)


class TrainCli:
    """``histner train`` in-process on the coupled four-region corpus at the
    CLI's default vocabulary (2^15)."""

    name = "train-cli-v32k"
    vocab = V32K
    min_passes = 2  # history.json and eval.json are compared between passes
    epochs = 6

    def setup(self, seed: int, workdir: Path) -> dict:
        splits = synthetic.regional_corpus(
            seed, coupled=True, config=synthetic.RegionalConfig(vocab_size=V32K))
        docs = splits.train + splits.valid + splits.test
        path = workdir / "corpus.jsonl"
        corpus.save_jsonl(docs, path)
        # the CLI splits the file it loads with the same seed
        cli_train = corpus.split_dataset(docs, corpus.SplitSpec(seed=seed)).train
        return {"seed": seed, "path": path, "train_tokens": _n_tokens(_sentences(cli_train))}

    def run(self, ctx: dict, ops: Ops, out: Path) -> PassResult:
        with contextlib.redirect_stdout(io.StringIO()):
            code = ops.call("model", cli.main, [
                "train", "--input", str(ctx["path"]), "--out", str(out),
                "--mode", "grad_rev", "--lr", "2e-3", "--epochs", str(self.epochs),
                "--seed", str(ctx["seed"]),
            ])
        ops.check(code == 0, f"histner train exited with {code}")
        history = (out / "history.json").read_bytes()
        evaluation = (out / "eval.json").read_bytes()
        return PassResult(
            model_tokens=self.epochs * ctx["train_tokens"],
            f1=json.loads(evaluation)["overall"]["f1"],
            outputs={"history.json": history, "eval.json": evaluation},
        )

    def check(self, ctx: dict, result: PassResult, ops: Ops) -> None:
        history = json.loads(result.outputs["history.json"])
        ops.check(
            len(history) == self.epochs and all(
                math.isfinite(h[k]) for h in history for k in ("l_y", "l_d", "l_total")),
            "training losses finite for every epoch")


class AdaptTrial:
    """The criterion-8 adaptation trial at vocab 4096, each phase of
    ``synthetic.run_adaptation_trial`` called separately on the two-domain
    corpus read back from JSONL."""

    name = "adapt-trial-v4k"
    vocab = 4096  # synthetic.benchmark_tagger_config's default
    min_passes = 1
    probe_epochs = 100

    def setup(self, seed: int, workdir: Path) -> dict:
        splits = synthetic.two_domain_corpus(seed)
        path = workdir / "corpus.jsonl"
        corpus.save_jsonl(splits.train + splits.valid + splits.test, path)
        return {"seed": seed, "path": path}

    def run(self, ctx: dict, ops: Ops, out: Path) -> PassResult:
        seed = ctx["seed"]
        docs = ops.call("tooling", corpus.load_jsonl, ctx["path"])
        violations = ops.call("tooling", corpus.validate_corpus, docs)
        ops.check(not violations, f"{len(violations)} corpus violations")
        part = {
            name: [s for d in docs if d.id.startswith(name + "-") for s in d.sentences]
            for name in ("train", "valid", "test")
        }
        tagger = synthetic.benchmark_tagger_config(seed)
        runs = {}
        for mode in ("baseline", "loss_rev"):
            runs[mode] = ops.call("model", training.train, part["train"], part["valid"],
                                  tagger, synthetic.benchmark_train_config(mode, seed))
        probe = ops.call("probe", training.fit_domain_probe, runs["baseline"].best_params,
                         part["train"], epochs=self.probe_epochs, lr=7e-3, seed=seed)
        scores = {
            "baseline_f1": ops.call("eval", synthetic.cross_domain_f1,
                                    runs["baseline"].best_params, part["test"]),
            "lossrev_f1": ops.call("eval", synthetic.cross_domain_f1,
                                   runs["loss_rev"].best_params, part["test"]),
            "baseline_probe_domain_acc": ops.call("eval", training.domain_accuracy,
                                                  probe, part["valid"]),
            "lossrev_domain_acc": ops.call("eval", training.domain_accuracy,
                                           runs["loss_rev"].final_params, part["valid"]),
        }
        epochs = sum(len(r.history) for r in runs.values())
        return PassResult(
            model_tokens=epochs * _n_tokens(part["train"]),
            f1=scores["lossrev_f1"],
            outputs={**scores, "histories": [r.history_json() for r in runs.values()]},
            # the criterion-8 gain is information only, never asserted here
            info={"criterion8_gain": scores["lossrev_f1"] - scores["baseline_f1"], **scores,
                  "tooling_sentences_per_s": len(_sentences(docs)) / ops.seconds["tooling"]},
        )

    def check(self, ctx: dict, result: PassResult, ops: Ops) -> None:
        # the two discriminator clauses of criterion 8, per trial
        ops.check(result.outputs["lossrev_domain_acc"] < 0.45,
                  f"loss_rev domain accuracy {result.outputs['lossrev_domain_acc']:.3f} >= 0.45")
        ops.check(result.outputs["baseline_probe_domain_acc"] > 0.9,
                  f"baseline probe domain accuracy "
                  f"{result.outputs['baseline_probe_domain_acc']:.3f} <= 0.9")
        losses = [h[k] for text in result.outputs["histories"] for h in json.loads(text)
                  for k in ("l_y", "l_d", "l_total")]
        ops.check(all(math.isfinite(v) for v in losses), "training losses finite")


def _perturbed_layer(docs, seed: int, share: float = 0.1):
    """A second annotation layer: one entity relabelled in a fixed share
    of the sentences, chosen by the seed. The synthetic corpora hold
    single-token entities only, so relabelling a B- tag keeps IOB2 valid."""
    labels = [label.name for label in corpus.EntityLabel]
    sentences = _sentences(docs)
    rng = np.random.default_rng(seed)
    chosen = set(rng.permutation(len(sentences))[: round(share * len(sentences))].tolist())
    out, index = [], 0
    for doc in docs:
        new_sents = []
        for sent in doc.sentences:
            tags = list(sent.tags)
            starts = [i for i, t in enumerate(tags) if t.startswith("B-")]
            if index in chosen and starts:
                first = starts[int(rng.integers(len(starts)))]
                old = labels.index(tags[first][2:])
                tags[first] = "B-" + labels[(old + 1) % len(labels)]
            new_sents.append(corpus.Sentence(tokens=sent.tokens, tags=tags, region=sent.region))
            index += 1
        out.append(corpus.Document(id=doc.id, region=doc.region, sentences=new_sents,
                                   year=doc.year))
    return out


class CorpusInfer:
    """Corpus tooling and inference, no training: the read side of the
    ``corpus`` and ``model`` layers with a vocab-2^15 checkpoint."""

    name = "corpus-infer-v32k"
    vocab = V32K
    min_passes = 1
    train_per_region = 240
    eval_per_region = 30
    sample = 32

    def setup(self, seed: int, workdir: Path) -> dict:
        config = synthetic.RegionalConfig(
            n_train_per_region=self.train_per_region, n_eval_per_region=self.eval_per_region,
            vocab_size=V32K)
        splits = synthetic.regional_corpus(seed, coupled=False, config=config)
        docs = splits.train + splits.valid + splits.test
        layer_a, layer_b, ckpt = (workdir / "layer_a.jsonl", workdir / "layer_b.jsonl",
                                  workdir / "checkpoint.npz")
        corpus.save_jsonl(docs, layer_a)
        corpus.save_jsonl(_perturbed_layer(docs, seed), layer_b)
        model.init_params(model.TaggerConfig(seed=seed)).save(ckpt)
        return {"seed": seed, "layer_a": layer_a, "layer_b": layer_b,
                "params": model.TaggerParams.load(ckpt)}

    def run(self, ctx: dict, ops: Ops, out: Path) -> PassResult:
        layer_a = ops.call("tooling", corpus.load_jsonl, ctx["layer_a"])
        layer_b = ops.call("tooling", corpus.load_jsonl, ctx["layer_b"])
        violations = ops.call("tooling", corpus.validate_corpus, layer_a)
        stats = ops.call("tooling", corpus.corpus_stats, layer_a)
        splits = ops.call("tooling", corpus.split_dataset, layer_a,
                          corpus.SplitSpec(seed=ctx["seed"]))
        ranking = ops.call("tooling", analysis.tfidf_top_k, layer_a, 5)
        agreement = ops.call("tooling", metrics.iaa_report, layer_a, layer_b)
        ops.check(not violations, f"{len(violations)} corpus violations")

        params = ctx["params"]
        sentences = _sentences(layer_a)
        report = ops.call("model", training.evaluate, params, sentences)
        domain_acc = ops.call("model", training.domain_accuracy, params, sentences)
        tsv = out / "embeddings.tsv"
        ops.call("model", training.export_embeddings, params, sentences, tsv)
        rows = tsv.read_text(encoding="utf-8").splitlines()
        ops.check(len(rows) == len(sentences),
                  f"embeddings.tsv has {len(rows)} rows for {len(sentences)} sentences")
        return PassResult(
            model_tokens=3 * _n_tokens(sentences),
            f1=agreement.overall.pairwise_f1.f1,
            outputs={
                "stats": stats.to_json_dict(),
                "split": [len(_sentences(p)) for p in splits.parts().values()],
                "tfidf": analysis.render_tsv(ranking),
                "iaa": agreement.to_json_dict(),
                "eval": report.to_json_dict(),
                "domain_acc": domain_acc,
                "embeddings_sha256": hashlib.sha256(tsv.read_bytes()).hexdigest(),
            },
            info={"tooling_sentences_per_s": len(sentences) / ops.seconds["tooling"]},
        )

    def check(self, ctx: dict, result: PassResult, ops: Ops) -> None:
        layer = corpus.load_jsonl(ctx["layer_a"])
        self_agreement = metrics.iaa_report(layer, layer).overall
        ops.check(self_agreement.kappa == 1.0 and self_agreement.pairwise_f1.f1 == 1.0,
                  f"iaa_report(layer, layer) gave kappa {self_agreement.kappa} "
                  f"and F1 {self_agreement.pairwise_f1.f1}")
        params = ctx["params"]
        sentences = _sentences(layer)
        sample = sentences[:: max(1, len(sentences) // self.sample)]
        batched = training.predict_corpus(params, sample)
        single = [model.predict_tags(params, s.token_texts) for s in sample]
        ops.check(batched == single, "batched predictions differ from predict_tags")
        report = training.evaluate(params, sample)
        ops.check(report.overall_accuracy == metrics.token_accuracy(
                      [list(s.tags) for s in sample], single),
                  "evaluate accuracy differs from predict_tags accuracy")


WORKLOADS = {w.name: w for w in (TrainCli, AdaptTrial, CorpusInfer)}
