"""Strict entity-level F1, token accuracy, Cohen's kappa, and agreement
reports for doubly-annotated corpora.

Strict matching: a predicted span is a true positive only when an unmatched
gold span has the same label and the exact same token boundaries. All of
precision, recall, and F1 fall back to 0 when their denominator is 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .corpus import (Document, EntityLabel, EntitySpan, Region, Sentence, TAG_ALPHABET,
                     format_table, iob_spans, tag_ids)
from .errors import DataError


@dataclass(frozen=True)
class PRF:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int) -> "PRF":
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = (
            2 * precision * recall / (precision + recall)
            if precision + recall
            else 0.0
        )
        return cls(tp, fp, fn, precision, recall, f1)

    def to_json_dict(self) -> dict:
        return {
            "tp": self.tp, "fp": self.fp, "fn": self.fn,
            "precision": self.precision, "recall": self.recall, "f1": self.f1,
        }


@dataclass
class StrictF1Report:
    overall: PRF
    per_label: dict[EntityLabel, PRF]

    @classmethod
    def from_counts(cls, counts: np.ndarray) -> "StrictF1Report":
        """The report of a (label, [tp, fp, fn]) count matrix; the overall
        counts are its sums over labels."""
        return cls(
            overall=PRF.from_counts(*counts.sum(axis=0).tolist()),
            per_label={l: PRF.from_counts(*c) for l, c in zip(EntityLabel, counts.tolist())},
        )


def span_counts(gold: Sequence[np.ndarray], pred: Sequence[np.ndarray],
                n_sentences: int) -> np.ndarray:
    """Strict-match counts of gold and predicted spans of ``n_sentences``
    sentences, each as ``iob_spans`` gives them, shape (sentences, labels,
    3) with columns tp, fp, fn; a group sums its rows. A (sentence, label,
    first, last) key that gold holds g times and pred p times, a multiset
    match, gives tp = min(g, p), fp = p - tp and fn = g - tp."""
    keys = np.stack([np.concatenate(c) for c in zip(gold, pred)])
    order = np.lexsort(keys[::-1])
    keys = keys[:, order]
    # where each run of equal keys starts, in key order
    runs = np.flatnonzero(np.diff(keys, axis=1, prepend=-1).any(axis=0))
    g = np.add.reduceat((order < len(gold[0])).astype(np.int64), runs)
    p = np.diff(np.append(runs, len(order))) - g
    tp = np.minimum(g, p)
    counts = np.zeros((n_sentences * len(EntityLabel), 3), dtype=np.int64)
    np.add.at(counts, keys[0, runs] * len(EntityLabel) + keys[1, runs],
              np.stack([tp, p - tp, g - tp], axis=1))
    return counts.reshape(n_sentences, len(EntityLabel), 3)


def strict_f1(
    gold: Sequence[Sequence[EntitySpan]], pred: Sequence[Sequence[EntitySpan]]
) -> StrictF1Report:
    """Micro-averaged strict F1 over aligned sentence lists, plus one PRF
    per entity label computed on that label's spans only."""
    if len(gold) != len(pred):
        raise DataError(f"gold has {len(gold)} sentences but pred has {len(pred)}")
    index = {label: i for i, label in enumerate(EntityLabel)}
    # each side's spans as iob_spans gives them
    sides = [np.array([(i, index[s.label], s.first_token, s.last_token)
                       for i, spans in enumerate(side) for s in spans],
                      dtype=np.int64).reshape(-1, 4).T for side in (gold, pred)]
    return StrictF1Report.from_counts(span_counts(*sides, len(gold)).sum(axis=0))


def compare_layers(a: np.ndarray, b: np.ndarray, lengths: Sequence[int], regions: Sequence[int],
                   token_score: Callable[[np.ndarray, np.ndarray], float]):
    """``(token_score(a, b), strict F1 report)`` of two aligned tag-id layers, ``a`` the reference,
    over all sentences of ``lengths`` tokens and ``regions``, then by each region present, in
    ``Region`` order; spans are counted once, per sentence, and summed per group."""
    counts = span_counts(iob_spans(a, lengths), iob_spans(b, lengths), len(lengths))
    regions = np.asarray(regions, dtype=np.int64)
    token_regions = np.repeat(regions, lengths)

    def score(sents, tokens) -> tuple[float, StrictF1Report]:
        return (token_score(a[tokens], b[tokens]),
                StrictF1Report.from_counts(counts[sents].sum(axis=0)))

    return score(slice(None), slice(None)), {r: score(regions == r, token_regions == r)
                                             for r in Region if (regions == r).any()}


def _tag_ids(
    tags_a: Sequence[Sequence[str]], tags_b: Sequence[Sequence[str]]
) -> tuple[np.ndarray, np.ndarray]:
    """Two aligned tag lists, checked to hold as many sentences as each
    other, each as long as its counterpart, flattened into int64 arrays
    of ids given to the tags in the order they are first seen."""
    if len(tags_a) != len(tags_b):
        raise DataError(f"the first tag list has {len(tags_a)} sentences, the second {len(tags_b)}")
    for i, (a, b) in enumerate(zip(tags_a, tags_b)):
        if len(a) != len(b):
            raise DataError(f"sentence {i}: {len(a)} tags vs {len(b)}")
    ids: dict[str, int] = {}
    a = np.array([ids.setdefault(t, len(ids)) for s in tags_a for t in s], dtype=np.int64)
    b = np.array([ids.setdefault(t, len(ids)) for s in tags_b for t in s], dtype=np.int64)
    return a, b


def accuracy(a: np.ndarray, b: np.ndarray) -> float:
    """The share of the positions where two aligned id arrays hold the same id."""
    if not len(a):
        raise DataError("no tokens to score")
    return np.count_nonzero(a == b) / len(a)


def token_accuracy(gold_tags: Sequence[Sequence[str]], pred_tags: Sequence[Sequence[str]]) -> float:
    """Fraction of matching tags over all tokens, O included."""
    return accuracy(*_tag_ids(gold_tags, pred_tags))


def _kappa(a: np.ndarray, b: np.ndarray) -> float:
    """Cohen's kappa of two aligned int64 tag-id arrays."""
    n = len(a)
    if not n:
        raise DataError("empty input to kappa")
    p_o = accuracy(a, b)
    count_a = np.bincount(a).tolist()
    count_b = np.bincount(b, minlength=len(count_a)).tolist()
    # the tags in the order they first appear in a, the order a Counter of a
    # iterates in, so that p_e is summed in the same order, to the same bits
    seen = a[np.sort(np.unique(a, return_index=True)[1])].tolist()
    p_e = sum((count_a[c] / n) * (count_b[c] / n) for c in seen)
    if p_e == 1.0:
        if p_o == 1.0:
            return 1.0
        raise DataError("degenerate marginals: chance agreement is 1 but observed is not")
    return (p_o - p_e) / (1 - p_e)


def cohens_kappa(
    tags_a: Sequence[Sequence[str]], tags_b: Sequence[Sequence[str]]
) -> float:
    """Token-level kappa over aligned tag lists; the tags may be any strings.

    kappa = (p_o - p_e) / (1 - p_e), with p_e from the two annotators'
    per-tag marginal distributions.
    """
    return _kappa(*_tag_ids(tags_a, tags_b))


# ---------------------------------------------------------------------------
# Inter-annotator agreement report
# ---------------------------------------------------------------------------

@dataclass
class AgreementCell:
    kappa: float
    pairwise_f1: PRF

    def to_json_dict(self) -> dict:
        return {"kappa": self.kappa, "pairwise_f1": self.pairwise_f1.to_json_dict()}


@dataclass
class AgreementReport:
    overall: AgreementCell
    per_region: dict[Region, AgreementCell]
    per_label: dict[EntityLabel, AgreementCell]

    def to_json_dict(self) -> dict:
        return {
            "overall": self.overall.to_json_dict(),
            "per_region": {r.display: c.to_json_dict() for r, c in self.per_region.items()},
            "per_label": {l.name: c.to_json_dict() for l, c in self.per_label.items()},
        }

    def render_text(self) -> str:
        rows = [("overall", self.overall)]
        rows += [(r.display, c) for r, c in self.per_region.items()]
        rows += [(l.name, c) for l, c in self.per_label.items()]
        table = [
            [name, f"{cell.kappa:.4f}", f"{cell.pairwise_f1.f1:.4f}"]
            for name, cell in rows
        ]
        return format_table(["group", "kappa", "pairwise_f1"], table)


#: Per label, the tag-id map that keeps that label's B- and I- ids and
#: sends every other id to O's id 0.
_LABEL_PROJECTION = {
    label: np.array([i if tag[2:] == label.name else 0 for i, tag in enumerate(TAG_ALPHABET)])
    for label in EntityLabel
}


def iaa_report(ann_a: Sequence[Document], ann_b: Sequence[Document]) -> AgreementReport:
    """Agreement between two annotation layers over the same documents,
    annotator A taken as reference for the pairwise F1. The layers must
    match sentence by sentence in token text, region and tag count."""
    if len(ann_a) != len(ann_b):
        raise DataError("annotation layers have different document counts")
    sents_a: list[Sentence] = []
    sents_b: list[Sentence] = []
    for da, db in zip(sorted(ann_a, key=lambda d: d.id), sorted(ann_b, key=lambda d: d.id)):
        if da.id != db.id:
            raise DataError(f"document id mismatch: {da.id!r} vs {db.id!r}")
        if len(da.sentences) != len(db.sentences):
            raise DataError(f"document {da.id!r}: sentence counts differ")
        for i, (sa, sb) in enumerate(zip(da.sentences, db.sentences)):
            if (sa.tokens, sa.region, len(sa.tags)) != (sb.tokens, sb.region, len(sb.tags)):
                raise DataError(
                    f"document {da.id!r}, sentence {i}: token text, region or tag count differs")
        sents_a += da.sentences
        sents_b += db.sentences

    a, b = (tag_ids([s.tags for s in sents]) for sents in (sents_a, sents_b))
    (kappa, f1), by_region = compare_layers(a, b, [len(s.tags) for s in sents_a],
                                            [s.region for s in sents_a], _kappa)
    overall = AgreementCell(kappa=kappa, pairwise_f1=f1.overall)
    per_region = {r: AgreementCell(kappa=k, pairwise_f1=f.overall) for r, (k, f) in by_region.items()}

    # a label's pairwise F1 is strict F1 on that label's spans only
    per_label = {
        label: AgreementCell(
            kappa=_kappa(_LABEL_PROJECTION[label][a], _LABEL_PROJECTION[label][b]),
            pairwise_f1=f1.per_label[label],
        )
        for label in EntityLabel
    }

    return AgreementReport(overall=overall, per_region=per_region, per_label=per_label)
