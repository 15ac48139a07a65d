"""Per-region TF-IDF term ranking.

Each region's sentences are pooled into one virtual document. With N the
number of region-documents and df the number of them containing a term:

    tf(term, region) = log(1 + count)
    idf(term)        = log(N / df)
    score            = tf * idf

Natural logs, no stop list, no vector normalization. A term appearing in
every region therefore scores 0 everywhere.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass

from .corpus import Corpus, Region
from .errors import ConfigError


@dataclass(frozen=True)
class TfIdfEntry:
    term: str
    region: Region
    score: float


def _terms(sentence) -> list[str]:
    # lowercase; drop tokens with no letter or digit (pure punctuation)
    return [
        t.lower()
        for t in sentence.tokens
        if any(ch.isalnum() for ch in t)
    ]


def tfidf_top_k(corpus: Corpus, k: int) -> dict[Region, list[TfIdfEntry]]:
    """Top-k scored terms per region, ties broken by term order."""
    if k <= 0:
        raise ConfigError(f"k must be >= 1, got {k}")
    counts: dict[Region, Counter] = {}
    for doc in corpus:
        for sent in doc.sentences:
            counts.setdefault(sent.region, Counter()).update(_terms(sent))
    n_regions = len(counts)
    if n_regions == 1:
        warnings.warn(
            "single-region corpus: every idf is 0, all scores degenerate",
            stacklevel=2,
        )
    df: Counter = Counter()
    for bag in counts.values():
        for term in bag:
            df[term] += 1
    ranking: dict[Region, list[TfIdfEntry]] = {}
    for region in sorted(counts):
        bag = counts[region]
        scored = []
        for term, count in bag.items():
            tf, idf = math.log(1 + count), math.log(n_regions / df[term])
            scored.append(TfIdfEntry(term=term, region=region, score=tf * idf))
        scored.sort(key=lambda e: (-e.score, e.term))
        ranking[region] = scored[:k]
    return ranking


def render_tsv(ranking: dict[Region, list[TfIdfEntry]]) -> str:
    lines = []
    for region in sorted(ranking):
        for rank, entry in enumerate(ranking[region], start=1):
            lines.append(f"{region.display}\t{rank}\t{entry.term}\t{entry.score:.6f}")
    return "\n".join(lines) + ("\n" if lines else "")
