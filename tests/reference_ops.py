"""Reference ops that the package no longer runs, kept for the tests that
compare against them.

The per-slot reference graph gathers each window slot with
``embedding_lookup`` over the whole table and joins the slots with
``concat``; the tagger's own forward gathers the windows once and keeps its
table gradient row-sparse. ``mul`` adds the node-by-node product to the
engine's product with a scalar. ``sub`` is the difference with which the
reference graphs write the loss-reversal objective, L_y - lambda * L_d,
which the tagger's step builds as a sum with the weight -lambda.
``finite_difference_check`` is the central finite-difference oracle for
every gradient. ``is_valid_iob`` is the oracle
for the IOB2 sequences that ``encode_iob`` repairs and the generators emit.
``decode_iob`` walks the tags one at a time and ``span_counts`` matches
spans with a ``Counter``, the loops that ``corpus.iob_spans`` and
``metrics.span_counts`` replaced. ``dumps_embeddings`` formats each row of
the embeddings TSV with one ``%`` call, the writer that the vectorised
``training._tsv_cells`` replaced.

Gradients follow the engine's rule (a gradient is its first contribution;
later ones are added out of place), so an op that must scatter in place
scatters into a copy. The module re-exports the engine names that the
tests use, so ``import reference_ops as ad`` gives one namespace for the
whole graph.
"""

from collections import Counter
from typing import Callable, Sequence

import numpy as np

from histner import autodiff, training
from histner.autodiff import (
    Node,
    _accumulate,
    _require_2d,
    _topo_order,
    add,
    all_finite,
    backward,
    matmul,
    mean,
    scale_gradient,
    softmax_cross_entropy,
    tanh,
)
from histner.corpus import TAG_TO_ID, EntityLabel, EntitySpan, Region
from histner.errors import DataError, ShapeError, TagError


def concat(nodes: Sequence[Node], axis: int = 1) -> Node:
    if not nodes:
        raise ShapeError("concat: no inputs")
    bounds = np.cumsum([n.value.shape[axis] for n in nodes])[:-1]

    def bw(g):
        for node, part in zip(nodes, np.split(g, bounds, axis=axis)):
            _accumulate(node, part)

    return Node(np.concatenate([n.value for n in nodes], axis=axis), tuple(nodes), bw, "concat")


def sum_(x: Node) -> Node:
    def bw(g):
        _accumulate(x, np.full_like(x.value, g))

    return Node(x.value.sum(), (x,), bw, "sum")


def embedding_lookup(table: Node, ids) -> Node:
    ids = np.asarray(ids, dtype=np.int64)
    _require_2d(table, "embedding_lookup")
    if ids.ndim != 1:
        raise ShapeError(f"embedding_lookup: ids must be 1-D, got shape {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ShapeError(
            f"embedding_lookup: id outside table with {table.shape[0]} rows"
        )

    def bw(g):
        # scattered in place, so into an array of its own
        table.grad = np.zeros_like(table.value) if table.grad is None else table.grad.copy()
        np.add.at(table.grad, ids, g)

    return Node(table.value[ids], (table,), bw, "embedding_lookup")


def mul(a: Node, b) -> Node:
    """Elementwise product with another node, or with a plain scalar."""
    if isinstance(b, Node):
        if a.shape != b.shape:
            raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")

        def bw(g):
            _accumulate(a, g * b.value)
            _accumulate(b, g * a.value)

        return Node(a.value * b.value, (a, b), bw, "mul")
    return autodiff.mul(a, b)


def sub(a: Node, b: Node) -> Node:
    if a.shape != b.shape:
        raise ShapeError(f"sub: incompatible shapes {a.shape} and {b.shape}")

    def bw(g):
        _accumulate(a, g)
        _accumulate(b, -g)

    return Node(a.value - b.value, (a, b), bw, "sub")


@np.errstate(over="ignore", invalid="ignore")
def finite_difference_check(
    f: Callable[[list[Node]], Node],
    params: Sequence[np.ndarray],
    eps: float = 1e-5,
    coords: Sequence[tuple[int, int]] | None = None,
) -> float:
    """Max relative error between autodiff and central differences.

    ``f`` builds a scalar loss from leaf nodes. ``coords`` selects
    (param_index, flat_index) coordinates to probe; default is all of
    them. Relative error uses max(|a|, |b|, 1e-8) as denominator.
    Points where f is non-finite raise.
    """
    base = [np.asarray(p, dtype=np.float64).copy() for p in params]
    leaves = [Node(p.copy()) for p in base]
    loss = f(leaves)
    if loss.value.shape != ():
        raise ShapeError("finite_difference_check: f must return a scalar")
    backward(loss)
    auto = [leaf.grad.copy() for leaf in leaves]

    if coords is None:
        coords = [(i, j) for i, p in enumerate(base) for j in range(p.size)]

    def eval_at(arrays: list[np.ndarray]) -> float:
        return float(f([Node(a.copy()) for a in arrays]).value)

    worst = 0.0
    for i, j in coords:
        saved = base[i].flat[j]
        base[i].flat[j] = saved + eps
        f_plus = eval_at(base)
        base[i].flat[j] = saved - eps
        f_minus = eval_at(base)
        base[i].flat[j] = saved
        fd = (f_plus - f_minus) / (2.0 * eps)
        ad = auto[i].flat[j]
        rel = abs(ad - fd) / max(abs(ad), abs(fd), 1e-8)
        worst = max(worst, rel)
    return worst


def is_valid_iob(tags: Sequence[str]) -> bool:
    prev = "O"
    for tag in tags:
        if tag not in TAG_TO_ID:
            return False
        if tag.startswith("I-") and prev != "B-" + tag[2:] and prev != tag:
            return False
        prev = tag
    return True


def decode_iob(tags: Sequence[str]) -> list[EntitySpan]:
    """Spans of a tag sequence, one tag at a time; a stray I-X (one with no
    open B-X/I-X run of the same label) starts a new span, as B-X would."""
    spans: list[EntitySpan] = []
    open_label: EntityLabel | None = None
    start = 0
    for i, tag in enumerate(tags):
        if tag not in TAG_TO_ID:
            raise TagError(f"unknown tag {tag!r} at position {i}")
        if tag == "O":
            if open_label is not None:
                spans.append(EntitySpan(open_label, start, i - 1))
                open_label = None
            continue
        prefix, name = tag.split("-", 1)
        label = EntityLabel[name]
        if prefix == "B" or open_label != label:
            if open_label is not None:
                spans.append(EntitySpan(open_label, start, i - 1))
            open_label, start = label, i
    if open_label is not None:
        spans.append(EntitySpan(open_label, start, len(tags) - 1))
    return spans


def span_counts(gold: Sequence[Sequence[EntitySpan]],
                pred: Sequence[Sequence[EntitySpan]]) -> np.ndarray:
    """Strict-match counts of aligned per-sentence span lists, shape
    (sentences, labels, 3) with columns tp, fp, fn: a predicted span that
    takes an unmatched gold span with its (label, first, last) key is a tp,
    else an fp; gold spans left unmatched are fns."""
    if len(gold) != len(pred):
        raise DataError(f"gold has {len(gold)} sentences but pred has {len(pred)}")
    cell = {label: 3 * i for i, label in enumerate(EntityLabel)}
    rows = []
    for g_sent, p_sent in zip(gold, pred):
        unmatched = Counter(s.key for s in g_sent)
        row = [0] * (3 * len(EntityLabel))
        for span in p_sent:
            if unmatched[span.key] > 0:
                unmatched[span.key] -= 1
                row[cell[span.label]] += 1
            else:
                row[cell[span.label] + 1] += 1
        for (label, _, _), n in unmatched.items():
            row[cell[label] + 2] += n
        rows.append(row)
    return np.array(rows, dtype=np.int64).reshape(len(rows), len(EntityLabel), 3)


def dumps_embeddings(params, sentences) -> str:
    """``training.dumps_embeddings`` with one ``%`` call per row."""
    row = "\t".join(["%.6f"] * params.config.hidden_dim)

    def reduce(group, graph):
        return "".join(f"{Region(enc.region_id).display}\t{row % tuple(h.mean(axis=0).tolist())}\n"
                       for enc, h in zip(group, training._per_sentence(graph.features.value, group)))

    encoded = training.encode_sentences(sentences, params.config)
    return "".join(training._forward_chunks(params, encoded, reduce))
