"""Seeded synthetic corpora for benchmarks and tests.

All generators share one scheme: a vocabulary of pseudo-word stems rendered
with a per-region orthography (a region-specific suffix on every word form),
so region is recoverable from spelling while sentence structure is shared.
Sentences are entity-dense: most tokens are single-token entities whose type
determines their label, which keeps every embedding task-relevant.

``two_domain_corpus`` is the domain-adaptation benchmark. Besides the
region-spelled anchor entities it contains a set of shared-surface
"ambiguous" types whose gold label flips with the region (tagged PERSON in
the source region, LOCATION in the target region, in both training and
evaluation). Per-type memorization is therefore structurally tied, and
resolving these mentions requires region-aware features; region-blind
features leak the other region's label. Cross-domain strict F1 is the mean
of the two per-region test scores.

``regional_corpus`` covers all four regions with balanced anchors; in
coupled mode Bessarabia and Moldavia share one rendering (one generator)
while the other two get private orthographies.

``separable_corpus`` is trivially memorizable: unambiguous single-token
entities, shared vocabulary, first pass emits every type once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .corpus import Corpus, Document, Region, Sentence, Splits, sentence_from_texts
from .errors import ConfigError, DataError
from .model import TaggerConfig, featurize
from .training import (
    TrainConfig,
    domain_accuracy,
    evaluate,
    fit_domain_probe,
    inter_regional,
    train,
)

CONSONANTS = "bcdfglmnprstvz"
VOWELS = "aeiou"

SOURCE_DOMAIN = Region.BESSARABIA
TARGET_DOMAIN = Region.TRANSYLVANIA

ANCHOR_LABELS = ("PERSON", "LOCATION", "DATE", "ORGANISATION")

#: Vocabulary size of the benchmark corpora and of the benchmark tagger.
BENCHMARK_VOCAB = 4096


class _WordFactory:
    """Generates pseudo-word stems whose rendered surface forms are unique
    both as strings and as hashed vocabulary ids, so the corpora carry no
    hash collisions."""

    def __init__(self, rng: np.random.Generator, vocab_size: int, renderings: list[str]):
        self.rng = rng
        self.vocab_size = vocab_size
        self.renderings = renderings
        self._surfaces: set[str] = set()
        self._ids: set[int] = set()

    def _stem(self) -> str:
        n = int(self.rng.integers(2, 4))
        return "".join(
            CONSONANTS[self.rng.integers(len(CONSONANTS))]
            + VOWELS[self.rng.integers(len(VOWELS))]
            for _ in range(n)
        )

    def stems(self, count: int) -> list[str]:
        out: list[str] = []
        attempts = 0
        while len(out) < count:
            attempts += 1
            if attempts > 20000:
                raise ConfigError("vocabulary too small to avoid hash collisions")
            stem = self._stem()
            surfaces = [stem + suffix for suffix in self.renderings]
            ids = featurize(surfaces, self.vocab_size).tolist()
            if len(set(surfaces)) != len(surfaces) or len(set(ids)) != len(ids):
                continue
            if any(s in self._surfaces for s in surfaces) or any(i in self._ids for i in ids):
                continue
            self._surfaces.update(surfaces)
            self._ids.update(ids)
            out.append(stem)
        return out


def _chunk_documents(sentences: list[Sentence], prefix: str, rng: np.random.Generator,
                     chunk: int = 20) -> Corpus:
    docs: Corpus = []
    for i in range(0, len(sentences), chunk):
        group = sentences[i : i + chunk]
        docs.append(
            Document(
                id=f"{prefix}-{i // chunk:03d}",
                region=group[0].region,
                sentences=group,
                year=int(rng.integers(1817, 1991)),
            )
        )
    return docs


class _AnchorSampler:
    """Entity-dense sentences over rendered anchor types plus fillers: 5
    filler and then 40 anchor stems drawn from ``factory``, whose generator
    the sentences then draw from."""

    def __init__(self, factory: _WordFactory):
        self.rng = factory.rng
        self.fillers = factory.stems(5)
        stems = factory.stems(40)
        self.anchors = [(w, ANCHOR_LABELS[i % len(ANCHOR_LABELS)]) for i, w in enumerate(stems)]

    def sentence(self, suffix: str) -> tuple[list[str], list[str]]:
        n_e = int(self.rng.integers(4, 7))
        n_f = int(self.rng.integers(0, 2))
        texts, tags = [], []
        for _ in range(n_e):
            stem, label = self.anchors[self.rng.integers(len(self.anchors))]
            texts.append(stem + suffix)
            tags.append("B-" + label)
        for _ in range(n_f):
            k = int(self.rng.integers(0, len(texts) + 1))
            texts.insert(k, self.fillers[self.rng.integers(len(self.fillers))] + suffix)
            tags.insert(k, "O")
        return texts, tags


def _splits(rng: np.random.Generator, regions: list[Region], rows, counts) -> Splits:
    """Train, valid and test, one ``count`` each: per region in order,
    ``rows(region, count)`` shuffled into sentences and chunked into documents."""
    parts: dict[str, Corpus] = {}
    for part, count in zip(("train", "valid", "test"), counts):
        docs: Corpus = []
        for region in regions:
            part_rows = rows(region, count)
            perm = rng.permutation(len(part_rows))
            sentences = [sentence_from_texts(*part_rows[i], region) for i in perm]
            docs.extend(_chunk_documents(sentences, f"{part}-{region.name.lower()}", rng))
        parts[part] = docs
    return Splits(**parts)


# ---------------------------------------------------------------------------
# Two-domain adaptation benchmark corpus
# ---------------------------------------------------------------------------

def two_domain_corpus(seed: int) -> Splits:
    """Benchmark corpus over (Bessarabia, Transylvania).

    Anchor entities are spelled per region (Transylvania adds a "u");
    ambiguous types keep one shared spelling and flip their gold label
    with the region: PERSON in Bessarabia, LOCATION in Transylvania.
    Per region, train holds 90 anchor-only and 60 ambiguous sentences;
    valid and test hold 12 and 28.
    """
    rng = np.random.default_rng(seed)
    factory = _WordFactory(rng, BENCHMARK_VOCAB, ["", "u"])
    sampler = _AnchorSampler(factory)
    ambiguous = factory.stems(10)
    suffixes = {SOURCE_DOMAIN: "", TARGET_DOMAIN: "u"}

    def ambiguous_sentence(region: Region) -> tuple[list[str], list[str]]:
        texts, tags = sampler.sentence(suffixes[region])
        k = int(rng.integers(0, len(texts) + 1))
        word = ambiguous[int(rng.integers(len(ambiguous)))]
        texts.insert(k, word)
        tags.insert(k, "B-PERSON" if region is SOURCE_DOMAIN else "B-LOCATION")
        return texts, tags

    def rows(region: Region, count: tuple[int, int]) -> list[tuple[list[str], list[str]]]:
        n_anchor, n_ambiguous = count
        return ([sampler.sentence(suffixes[region]) for _ in range(n_anchor)]
                + [ambiguous_sentence(region) for _ in range(n_ambiguous)])

    return _splits(rng, list(suffixes), rows, [(90, 60), (12, 28), (12, 28)])


# ---------------------------------------------------------------------------
# Four-region corpus with an optional coupled pair
# ---------------------------------------------------------------------------

@dataclass
class RegionalConfig:
    n_train_per_region: int = 110
    n_eval_per_region: int = 30
    vocab_size: int = BENCHMARK_VOCAB


#: Orthography per region; in coupled mode Bessarabia and Moldavia share one.
COUPLED_SUFFIXES = {
    Region.BESSARABIA: "",
    Region.MOLDAVIA: "",
    Region.TRANSYLVANIA: "u",
    Region.WALLACHIA: "le",
}
DISTINCT_SUFFIXES = {
    Region.BESSARABIA: "",
    Region.MOLDAVIA: "a",
    Region.TRANSYLVANIA: "u",
    Region.WALLACHIA: "le",
}


def regional_corpus(seed: int, coupled: bool = True,
                    config: RegionalConfig | None = None) -> Splits:
    """Four-region entity-dense corpus; with ``coupled`` the Bessarabia and
    Moldavia sentences come from one shared rendering."""
    cfg = config or RegionalConfig()
    rng = np.random.default_rng(seed)
    suffixes = COUPLED_SUFFIXES if coupled else DISTINCT_SUFFIXES
    sampler = _AnchorSampler(_WordFactory(rng, cfg.vocab_size, sorted(set(suffixes.values()))))

    def rows(region: Region, count: int) -> list[tuple[list[str], list[str]]]:
        return [sampler.sentence(suffixes[region]) for _ in range(count)]

    return _splits(rng, list(Region), rows,
                   [cfg.n_train_per_region, cfg.n_eval_per_region, cfg.n_eval_per_region])


# ---------------------------------------------------------------------------
# Trivially separable corpus
# ---------------------------------------------------------------------------

def separable_corpus(seed: int, n_sentences: int = 200,
                     vocab_size: int = 2**15) -> Corpus:
    """Single-token entities with an unambiguous type-to-label mapping. The
    first pass emits every entity type twice so any 80 percent split still
    covers the full lexicon."""
    rng = np.random.default_rng(seed)
    factory = _WordFactory(rng, vocab_size, [""])
    fillers = factory.stems(15)
    labels = ["PERSON", "ORGANISATION", "LOCATION", "PRODUCT", "DATE"]
    lexicon = {label: factory.stems(6) for label in labels}

    def entity_row(label: str, word: str):
        n = int(rng.integers(4, 8))
        texts = [fillers[rng.integers(len(fillers))] for _ in range(n)]
        k = int(rng.integers(0, n + 1))
        texts[k:k] = [word]
        tags = ["O"] * len(texts)
        tags[k] = "B-" + label
        return texts, tags

    rows = []
    for label in labels:
        for word in lexicon[label]:
            rows.append(entity_row(label, word))
            rows.append(entity_row(label, word))
    while len(rows) < n_sentences:
        if rng.random() < 0.25:
            n = int(rng.integers(4, 9))
            texts = [fillers[rng.integers(len(fillers))] for _ in range(n)]
            rows.append((texts, ["O"] * len(texts)))
        else:
            label = labels[rng.integers(len(labels))]
            word = lexicon[label][rng.integers(len(lexicon[label]))]
            rows.append(entity_row(label, word))
    rows = rows[:n_sentences]
    perm = rng.permutation(len(rows))
    regions = list(Region)
    sentences = [
        sentence_from_texts(rows[i][0], rows[i][1], regions[j % len(regions)])
        for j, i in enumerate(perm)
    ]
    return _chunk_documents(sentences, "separable", rng, chunk=10)


# ---------------------------------------------------------------------------
# Benchmark trials
# ---------------------------------------------------------------------------

@dataclass
class AdaptationTrial:
    seed: int
    baseline_f1: float
    lossrev_f1: float
    baseline_domain_probe_acc: float
    lossrev_domain_acc: float

    @property
    def gain(self) -> float:
        return self.lossrev_f1 - self.baseline_f1


def benchmark_tagger_config(seed: int) -> TaggerConfig:
    return TaggerConfig(
        vocab_size=BENCHMARK_VOCAB, embed_dim=64, hidden_dim=256, context_window=2, seed=seed
    )


def benchmark_train_config(mode: str, seed: int, epochs: int = 20) -> TrainConfig:
    return TrainConfig(
        mode=mode, epochs=epochs, lr=2e-3, weight_decay=0.05,
        batch_size=32, clip_norm=2.0, lam=0.1, seed=seed,
    )


def cross_domain_f1(params, test_sentences) -> float:
    """Mean of the two per-region overall strict F1 scores."""
    per_region = evaluate(params, test_sentences).per_region
    scores = []
    for region in (SOURCE_DOMAIN, TARGET_DOMAIN):
        if region not in per_region:
            raise DataError(f"no {region.display} sentences to evaluate")
        scores.append(per_region[region].f1.f1)
    return float(np.mean(scores))


def run_adaptation_trial(seed: int, epochs: int = 20, lam: float = 0.1) -> AdaptationTrial:
    """Train baseline and loss-reversal models on the two-domain corpus.

    Reports cross-domain strict F1 for both modes plus the two
    discriminator readings: the loss-reversal model's own domain head as
    trained (it receives reversed gradients, so it ends anti-predictive),
    and a domain head refit on the baseline's frozen features (the
    baseline never trains its own domain head).

    Measured behaviour at this scale: the discriminator readings are
    stark (the anti-trained head drops to ~0.0 accuracy while the
    baseline probe exceeds 0.9), but the F1 gain of loss reversal over
    the baseline is small and negative on every measured seed. Under
    Adam the anti-trained head reaches confident wrongness at full
    optimizer speed whatever lambda is, and from then on its gradient into the
    extractor is a persistent push that slows NER convergence; with
    hashed whole-token features there is also no subword channel for
    spelling variants to share. Both factors are discussed in the
    README's known-limitation note.
    """
    splits = two_domain_corpus(seed)
    train_s = [s for doc in splits.train for s in doc.sentences]
    valid_s = [s for doc in splits.valid for s in doc.sentences]
    test_s = [s for doc in splits.test for s in doc.sentences]
    tagger_cfg = benchmark_tagger_config(seed)
    base = train(train_s, valid_s, tagger_cfg,
                 benchmark_train_config("baseline", seed, epochs))
    adapted = train(train_s, valid_s, tagger_cfg,
                    replace(benchmark_train_config("loss_rev", seed, epochs), lam=lam))
    probe = fit_domain_probe(base.best_params, train_s, epochs=100, lr=7e-3, seed=seed)
    return AdaptationTrial(
        seed=seed,
        baseline_f1=cross_domain_f1(base.best_params, test_s),
        lossrev_f1=cross_domain_f1(adapted.best_params, test_s),
        baseline_domain_probe_acc=domain_accuracy(probe, valid_s),
        lossrev_domain_acc=domain_accuracy(adapted.final_params, valid_s),
    )


def run_coupled_matrix_trial(seed: int, epochs: int = 8):
    """Inter-regional strict F1 matrix on the coupled four-region corpus."""
    splits = regional_corpus(seed, coupled=True)
    tagger_cfg = benchmark_tagger_config(seed)
    config = TrainConfig(mode="baseline", epochs=epochs, lr=2e-3,
                         weight_decay=0.05, seed=seed)
    return inter_regional(splits, tagger_cfg, config)
