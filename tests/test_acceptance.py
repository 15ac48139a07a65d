"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s``).

Criterion 6 and the corpus-rank half of criterion 7 need the public
HistNERo release on disk (directory from $HISTNERO_DIR or ./data/histnero);
they are skipped with a notice when it is absent. Nothing else depends on
the dataset.
"""

import json
import math
import os
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from histner import cli
from histner import model as M
from histner import training as T
from histner.analysis import tfidf_top_k
from histner.corpus import (
    Document,
    EntityLabel,
    EntitySpan,
    Region,
    TAG_ALPHABET,
    corpus_stats,
    decode_iob,
    encode_iob,
    is_valid_iob,
    iter_sentences,
    load_histnero,
    save_jsonl,
)
from histner.metrics import cohens_kappa, strict_f1
from histner.synthetic import (
    run_adaptation_trial,
    run_coupled_matrix_trial,
    separable_corpus,
    sentence_from_texts,
    two_domain_corpus,
)

from conftest import dense_losses

SEEDS = (0, 1, 2, 3, 4)


def report(criterion, name, ok, detail=""):
    print(f"[acceptance] criterion {criterion} ({name}): "
          f"{'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {criterion} ({name}): {detail}"


def dataset_dir():
    candidates = [os.environ.get("HISTNERO_DIR"), "data/histnero"]
    for cand in candidates:
        if cand and Path(cand).is_dir():
            return Path(cand)
    return None


def _norm_close(a, b, rtol):
    scale = max(np.abs(a).max(), np.abs(b).max(), 1e-30)
    return float(np.abs(a - b).max()) <= rtol * scale


# ---------------------------------------------------------------------------
# 1. Exact equivalence of the two adaptation modes
# ---------------------------------------------------------------------------

def test_criterion_1_mode_equivalence():
    start = time.time()
    rng = np.random.default_rng(2024)
    config = M.TaggerConfig(vocab_size=256, embed_dim=8, hidden_dim=16,
                            context_window=2, seed=0)
    worst_shared = worst_domain = 0.0
    for trial in range(100):
        params = M.init_params(
            M.TaggerConfig(vocab_size=256, embed_dim=8, hidden_dim=16,
                           context_window=2, seed=int(rng.integers(1 << 30)))
        )
        sentences = []
        for _ in range(int(rng.integers(2, 5))):
            n = int(rng.integers(2, 9))
            texts = [f"w{rng.integers(500)}" for _ in range(n)]
            tags = encode_iob(
                decode_iob([TAG_ALPHABET[rng.integers(11)] for _ in range(n)]), n
            )
            sentences.append(
                sentence_from_texts(texts, tags, Region(int(rng.integers(4))))
            )
        batch = T.encode_sentences(sentences, config)
        lam = float(rng.uniform(0.0, 1.0))
        _, g = dense_losses(params, batch, "grad_rev", lam)
        _, l = dense_losses(params, batch, "loss_rev", lam)
        for key in g:
            scale = max(np.abs(g[key]).max(), np.abs(l[key]).max(), 1e-30)
            if key[0] in ("extractor", "ner_head"):
                worst_shared = max(worst_shared, float(np.abs(g[key] - l[key]).max()) / scale)
            else:
                expected = -lam * g[key]
                scale = max(np.abs(expected).max(), np.abs(l[key]).max(), 1e-30)
                worst_domain = max(worst_domain, float(np.abs(l[key] - expected).max()) / scale)
    elapsed = time.time() - start
    report(
        1, "mode equivalence",
        worst_shared <= 1e-12 and worst_domain <= 1e-12 and elapsed < 10,
        f"shared rel err {worst_shared:.2e}, domain rel err {worst_domain:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. Gradient correctness against central finite differences
# ---------------------------------------------------------------------------

def test_criterion_2_gradient_correctness():
    from histner import autodiff as ad

    start = time.time()
    rng = np.random.default_rng(7)
    config = M.TaggerConfig(vocab_size=128, embed_dim=6, hidden_dim=12,
                            context_window=2, seed=0)
    worst = 0.0
    for point in range(20):
        params = M.init_params(
            M.TaggerConfig(vocab_size=128, embed_dim=6, hidden_dim=12,
                           context_window=2, seed=point)
        )
        n = int(rng.integers(3, 8))
        ids = rng.integers(0, config.vocab_size, size=n)
        windows = M.window_matrix(ids.astype(np.int64), 2, config.pad_id)
        tags = rng.integers(0, 11, size=n)
        regions = np.full(n, int(rng.integers(4)), dtype=np.int64)
        keys = [key for key, _ in params.items_flat()]
        arrays = [arr for _, arr in params.items_flat()]

        def loss_fn(leaves):
            by_key = dict(zip(keys, leaves))
            slots = [
                ad.embedding_lookup(by_key[("extractor", "embed")], windows[:, j])
                for j in range(windows.shape[1])
            ]
            x = ad.concat(slots, axis=1)
            h = ad.tanh(ad.add(ad.matmul(x, by_key[("extractor", "w_hidden")]),
                               by_key[("extractor", "b_hidden")]))
            ner = ad.add(ad.matmul(h, by_key[("ner_head", "w")]), by_key[("ner_head", "b")])
            dom = ad.add(ad.matmul(h, by_key[("domain_head", "w")]), by_key[("domain_head", "b")])
            l_y = ad.mean(ad.softmax_cross_entropy(ner, tags))
            l_d = ad.mean(ad.softmax_cross_entropy(dom, regions))
            return ad.sub(l_y, ad.mul(l_d, 0.1))

        coords = []
        touched_rows = sorted(set(windows.flatten().tolist()))
        for _ in range(20):
            pi = int(rng.integers(len(keys)))
            if keys[pi] == ("extractor", "embed"):
                row = touched_rows[rng.integers(len(touched_rows))]
                col = int(rng.integers(config.embed_dim))
                coords.append((pi, row * config.embed_dim + col))
            else:
                coords.append((pi, int(rng.integers(arrays[pi].size))))
        worst = max(worst, ad.finite_difference_check(loss_fn, arrays, eps=1e-5, coords=coords))
    elapsed = time.time() - start
    report(2, "gradient correctness",
           worst < 1e-4 and elapsed < 30,
           f"max rel err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. Strict scorer equals the brute-force span-set oracle
# ---------------------------------------------------------------------------

def _oracle_counts(gold_tags, pred_tags):
    def extract(tags):
        spans = []
        i = 0
        while i < len(tags):
            if tags[i] == "O":
                i += 1
                continue
            label = tags[i].split("-", 1)[1]
            j = i + 1
            while j < len(tags) and tags[j] == "I-" + label:
                j += 1
            spans.append((label, i, j - 1))
            i = j
        return Counter(spans)

    cg, cp = extract(gold_tags), extract(pred_tags)
    tp = sum((cg & cp).values())
    return tp, sum(cp.values()) - tp, sum(cg.values()) - tp


def test_criterion_3_scorer_oracle():
    rng = np.random.default_rng(99)
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        gold = [TAG_ALPHABET[i] for i in rng.integers(0, 11, size=n)]
        pred = [TAG_ALPHABET[i] for i in rng.integers(0, 11, size=n)]
        got = strict_f1([decode_iob(gold)], [decode_iob(pred)]).overall
        want = _oracle_counts(gold, pred)
        if (got.tp, got.fp, got.fn) != want:
            mismatches += 1
    report(3, "scorer oracle", mismatches == 0, f"{mismatches} mismatches in 1000")


# ---------------------------------------------------------------------------
# 4. IOB round trips
# ---------------------------------------------------------------------------

def test_criterion_4_iob_round_trip():
    rng = np.random.default_rng(4)
    failures = 0
    for _ in range(1000):
        n = int(rng.integers(1, 14))
        spans = []
        pos = 0
        while pos < n:
            if rng.random() < 0.5:
                end = min(n - 1, pos + int(rng.integers(0, 3)))
                spans.append(EntitySpan(list(EntityLabel)[rng.integers(5)], pos, end))
                pos = end + 1
            else:
                pos += 1
        decoded = decode_iob(encode_iob(spans, n))
        if [s.key for s in decoded] != [s.key for s in spans]:
            failures += 1
    for _ in range(1000):
        n = int(rng.integers(1, 14))
        tags = [TAG_ALPHABET[i] for i in rng.integers(0, 11, size=n)]
        spans = decode_iob(tags)
        repaired = encode_iob(spans, n)
        if not is_valid_iob(repaired):
            failures += 1
        elif [s.key for s in decode_iob(repaired)] != [s.key for s in spans]:
            failures += 1
    report(4, "IOB round trip", failures == 0, f"{failures} failures in 2000")


# ---------------------------------------------------------------------------
# 5. Kappa checks
# ---------------------------------------------------------------------------

def test_criterion_5_kappa():
    hand = cohens_kappa([["O", "O", "B-DATE", "B-DATE"]],
                        [["O", "B-DATE", "B-DATE", "B-DATE"]])
    identical = cohens_kappa([["O", "B-PERSON", "O"]], [["O", "B-PERSON", "O"]])
    rng = np.random.default_rng(5)
    kappas = [
        cohens_kappa(
            [list(rng.choice(TAG_ALPHABET, size=10_000))],
            [list(rng.choice(TAG_ALPHABET, size=10_000))],
        )
        for _ in range(100)
    ]
    mean_kappa = float(np.mean(kappas))
    report(
        5, "kappa",
        hand == 0.5 and identical == 1.0 and abs(mean_kappa) < 0.05,
        f"hand={hand}, identical={identical}, random mean={mean_kappa:+.4f}",
    )


# ---------------------------------------------------------------------------
# 6. Dataset statistics on the public release (skipped when absent)
# ---------------------------------------------------------------------------

def test_criterion_6_dataset_statistics():
    root = dataset_dir()
    if root is None:
        print("[acceptance] criterion 6 (dataset statistics): SKIP "
              "(HistNERo release not found; set HISTNERO_DIR or place it in data/histnero)")
        pytest.skip("HistNERo dataset not present")
    splits = load_histnero(root)
    full = splits.train + splits.valid + splits.test
    stats = corpus_stats(full)
    counts = {
        name: sum(len(d.sentences) for d in part)
        for name, part in splits.parts().items()
    }
    total = stats.total
    checks = {
        "sentences": stats.n_sentences == 10_026,
        "tokens": stats.n_tokens == 323_865,
        "entities": total.entities == 9_601,
        "entity_tokens": total.entity_tokens == 17_015,
        "tokens_per_entity": round(total.tokens_per_entity, 2) == 1.77,
        "split": (counts["train"], counts["valid"], counts["test"]) == (8_020, 1_003, 1_003),
    }
    report(6, "dataset statistics", all(checks.values()),
           ", ".join(f"{k}={'ok' if v else 'MISMATCH'}" for k, v in checks.items()))


# ---------------------------------------------------------------------------
# 7. TF-IDF: fixture score exactly, corpus rank when data present
# ---------------------------------------------------------------------------

def test_criterion_7_tfidf():
    corpus = [
        # region 1: "abc" three times, plus a shared term
        Document(
            id="r1",
            region=Region.BESSARABIA,
            sentences=[sentence_from_texts(["abc", "abc", "abc", "alt"], ["O"] * 4,
                                           Region.BESSARABIA)],
        ),
        Document(
            id="r2",
            region=Region.MOLDAVIA,
            sentences=[sentence_from_texts(["alt", "alt"], ["O"] * 2, Region.MOLDAVIA)],
        ),
    ]
    ranking = tfidf_top_k(corpus, k=1)
    top = ranking[Region.BESSARABIA][0]
    fixture_ok = top.term == "abc" and abs(top.score - math.log(4) * math.log(2)) < 1e-9
    detail = f"fixture score {top.score:.12f} vs {math.log(4) * math.log(2):.12f}"

    root = dataset_dir()
    if root is not None:
        splits = load_histnero(root)
        full = splits.train + splits.valid + splits.test
        corpus_ranking = tfidf_top_k(full, k=5)
        top_term = corpus_ranking[Region.BESSARABIA][0].term
        fixture_ok = fixture_ok and top_term == "basarabia"
        detail += f", Bessarabia top term {top_term!r}"
    else:
        detail += ", corpus rank SKIPPED (dataset not present)"
    report(7, "tf-idf", fixture_ok, detail)


# ---------------------------------------------------------------------------
# 8. Directional domain-adaptation effect on the synthetic benchmark
# ---------------------------------------------------------------------------

def test_criterion_8_domain_adaptation_effect():
    start = time.time()
    trials = [run_adaptation_trial(seed) for seed in SEEDS]
    mean_gain = float(np.mean([t.gain for t in trials]))
    mean_lossrev_dacc = float(np.mean([t.lossrev_domain_acc for t in trials]))
    mean_probe = float(np.mean([t.baseline_domain_probe_acc for t in trials]))
    elapsed = time.time() - start
    detail = (
        f"mean gain {100 * mean_gain:+.2f} points "
        f"(baseline {100 * float(np.mean([t.baseline_f1 for t in trials])):.2f}, "
        f"loss_rev {100 * float(np.mean([t.lossrev_f1 for t in trials])):.2f}), "
        f"loss_rev D acc {mean_lossrev_dacc:.3f}, baseline-probe D acc {mean_probe:.3f}, "
        f"{elapsed:.0f}s"
    )
    report(
        8, "domain adaptation effect",
        mean_gain >= 0.03 and mean_lossrev_dacc < 0.45 and mean_probe > 0.9
        and elapsed < 300,
        detail,
    )


# ---------------------------------------------------------------------------
# 9. Byte-identical outputs for identical seeded runs
# ---------------------------------------------------------------------------

def test_criterion_9_determinism(tmp_path):
    corpus = separable_corpus(0, n_sentences=80, vocab_size=512)
    corpus_path = tmp_path / "corpus.jsonl"
    save_jsonl(corpus, corpus_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "tagger": {"vocab_size": 512, "embed_dim": 8, "hidden_dim": 16},
        "train": {"epochs": 2},
    }))
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli.main([
            "train", "--input", str(corpus_path), "--out", str(out),
            "--config", str(config_path), "--seed", "7", "--mode", "loss_rev",
            "--lambda", "0.1",
        ])
        assert code == 0
        outputs.append(out)
    same = all(
        (outputs[0] / f).read_bytes() == (outputs[1] / f).read_bytes()
        for f in ("history.json", "eval.json")
    )
    report(9, "determinism", same, "history.json and eval.json byte-identical")


# ---------------------------------------------------------------------------
# 10. Inter-regional structure: the coupled pair stands out
# ---------------------------------------------------------------------------

def test_criterion_10_inter_regional_structure():
    wins = 0
    details = []
    for seed in SEEDS:
        result = run_coupled_matrix_trial(seed)
        m = result.matrix
        coupled = min(m[0, 1], m[1, 0])
        cross = max(
            m[i, j]
            for i in range(4)
            for j in range(4)
            if i != j and {i, j} != {0, 1}
        )
        wins += coupled > cross
        details.append(f"seed {seed}: coupled {coupled:.3f} vs cross {cross:.3f}")
    report(10, "inter-regional structure", wins >= 4,
           f"{wins}/5 seeds ({'; '.join(details)})")
