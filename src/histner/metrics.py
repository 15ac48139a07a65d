"""Strict entity-level F1, token accuracy, Cohen's kappa, and agreement
reports for doubly-annotated corpora.

Strict matching: a predicted span is a true positive only when an unmatched
gold span has the same label and the exact same token boundaries. All of
precision, recall, and F1 fall back to 0 when their denominator is 0.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import Document, EntityLabel, EntitySpan, Region, format_table
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


#: Where a label's [tp, fp, fn] cells start in a sentence's flat count row.
_LABEL_CELL = {label: 3 * i for i, label in enumerate(EntityLabel)}


def span_counts(
    gold: Sequence[Sequence[EntitySpan]], pred: Sequence[Sequence[EntitySpan]]
) -> np.ndarray:
    """Strict-match counts of aligned sentence lists, shape (sentences,
    labels, 3) with columns tp, fp, fn: a predicted span that takes an
    unmatched gold span with its (label, first, last) key is a tp, else an
    fp; gold spans left unmatched are fns. A group sums its rows."""
    if len(gold) != len(pred):
        raise DataError(f"gold has {len(gold)} sentences but pred has {len(pred)}")
    rows = []
    for g_sent, p_sent in zip(gold, pred):
        unmatched = Counter(s.key for s in g_sent)
        row = [0] * (3 * len(EntityLabel))
        for span in p_sent:
            if unmatched[span.key] > 0:
                unmatched[span.key] -= 1
                row[_LABEL_CELL[span.label]] += 1
            else:
                row[_LABEL_CELL[span.label] + 1] += 1
        for (label, _, _), n in unmatched.items():
            row[_LABEL_CELL[label] + 2] += n
        rows.append(row)
    return np.array(rows, dtype=np.int64).reshape(len(rows), len(EntityLabel), 3)


def strict_f1(
    gold: Sequence[Sequence[EntitySpan]], pred: Sequence[Sequence[EntitySpan]]
) -> StrictF1Report:
    """Micro-averaged strict F1 over aligned sentence lists, plus one PRF
    per entity label computed on that label's spans only."""
    return StrictF1Report.from_counts(span_counts(gold, pred).sum(axis=0))


def token_accuracy(
    gold_tags: Sequence[Sequence[str]], pred_tags: Sequence[Sequence[str]]
) -> float:
    """Fraction of matching tags over all tokens, O included."""
    if len(gold_tags) != len(pred_tags):
        raise DataError(
            f"gold has {len(gold_tags)} sentences but pred has {len(pred_tags)}"
        )
    matched = total = 0
    for i, (g, p) in enumerate(zip(gold_tags, pred_tags)):
        if len(g) != len(p):
            raise DataError(f"sentence {i}: {len(g)} gold tags vs {len(p)} predicted")
        matched += sum(1 for a, b in zip(g, p) if a == b)
        total += len(g)
    if total == 0:
        raise DataError("no tokens to score")
    return matched / total


def _kappa_from_pairs(pairs: list[tuple[str, str]]) -> float:
    if not pairs:
        raise DataError("empty input to kappa")
    n = len(pairs)
    p_o = sum(1 for a, b in pairs if a == b) / n
    count_a = Counter(a for a, _ in pairs)
    count_b = Counter(b for _, b in pairs)
    p_e = sum((count_a[c] / n) * (count_b[c] / n) for c in count_a)
    if p_e == 1.0:
        if p_o == 1.0:
            return 1.0
        raise DataError("degenerate marginals: chance agreement is 1 but observed is not")
    return (p_o - p_e) / (1 - p_e)


def cohens_kappa(
    tags_a: Sequence[Sequence[str]], tags_b: Sequence[Sequence[str]]
) -> float:
    """Token-level kappa over the IOB2 tag alphabet.

    kappa = (p_o - p_e) / (1 - p_e), with p_e from the two annotators'
    per-tag marginal distributions.
    """
    if len(tags_a) != len(tags_b):
        raise DataError(
            f"annotator A has {len(tags_a)} sentences, annotator B {len(tags_b)}"
        )
    pairs: list[tuple[str, str]] = []
    for i, (a, b) in enumerate(zip(tags_a, tags_b)):
        if len(a) != len(b):
            raise DataError(f"sentence {i}: length {len(a)} vs {len(b)}")
        pairs.extend(zip(a, b))
    return _kappa_from_pairs(pairs)


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


def _project_tags(tags: Sequence[str], label: EntityLabel) -> list[str]:
    keep = {"B-" + label.name, "I-" + label.name}
    return [t if t in keep else "O" for t in tags]


def iaa_report(ann_a: Sequence[Document], ann_b: Sequence[Document]) -> AgreementReport:
    """Agreement between two annotation layers over the same documents,
    annotator A taken as reference for the pairwise F1."""
    if len(ann_a) != len(ann_b):
        raise DataError("annotation layers have different document counts")
    docs_a = sorted(ann_a, key=lambda d: d.id)
    docs_b = sorted(ann_b, key=lambda d: d.id)
    tags_a: list[list[str]] = []
    tags_b: list[list[str]] = []
    spans_a: list[list[EntitySpan]] = []
    spans_b: list[list[EntitySpan]] = []
    regions: list[Region] = []
    for da, db in zip(docs_a, docs_b):
        if da.id != db.id:
            raise DataError(f"document id mismatch: {da.id!r} vs {db.id!r}")
        if len(da.sentences) != len(db.sentences):
            raise DataError(f"document {da.id!r}: sentence counts differ")
        for sa, sb in zip(da.sentences, db.sentences):
            if len(sa.tokens) != len(sb.tokens):
                raise DataError(f"document {da.id!r}: tokenization differs")
            tags_a.append(list(sa.tags))
            tags_b.append(list(sb.tags))
            spans_a.append(sa.spans)
            spans_b.append(sb.spans)
            regions.append(sa.region)

    counts = span_counts(spans_a, spans_b)
    f1 = StrictF1Report.from_counts(counts.sum(axis=0))
    overall = AgreementCell(kappa=cohens_kappa(tags_a, tags_b), pairwise_f1=f1.overall)

    per_region: dict[Region, AgreementCell] = {}
    for region in Region:
        idx = [i for i, r in enumerate(regions) if r == region]
        if not idx:
            continue
        per_region[region] = AgreementCell(
            kappa=cohens_kappa([tags_a[i] for i in idx], [tags_b[i] for i in idx]),
            pairwise_f1=StrictF1Report.from_counts(counts[idx].sum(axis=0)).overall,
        )

    # a label's pairwise F1 is strict F1 on that label's spans only
    per_label = {
        label: AgreementCell(
            kappa=cohens_kappa([_project_tags(t, label) for t in tags_a],
                               [_project_tags(t, label) for t in tags_b]),
            pairwise_f1=f1.per_label[label],
        )
        for label in EntityLabel
    }

    return AgreementReport(overall=overall, per_region=per_region, per_label=per_label)

