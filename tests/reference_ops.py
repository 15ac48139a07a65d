"""Reference ops that the package no longer runs, kept for the tests that
compare against them.

The per-slot reference graph gathers each window slot with
``embedding_lookup`` over the whole table and joins the slots with
``concat``; the tagger's own forward gathers the windows once and keeps its
table gradient row-sparse. ``is_valid_iob`` is the oracle for the IOB2
sequences that ``encode_iob`` repairs and the generators emit.

Gradients follow the engine's rule (a gradient is its first contribution;
later ones are added out of place), so an op that must scatter in place
scatters into a copy. The module re-exports the engine ops the reference
graph is built from, so ``import reference_ops as ad`` gives one namespace
for the whole graph.
"""

from typing import Sequence

import numpy as np

from histner.autodiff import (
    Node,
    _accumulate,
    _require_2d,
    add,
    backward,
    finite_difference_check,
    matmul,
    mean,
    mul,
    scale_gradient,
    softmax_cross_entropy,
    sub,
    tanh,
)
from histner.corpus import TAG_TO_ID
from histner.errors import ShapeError


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


def is_valid_iob(tags: Sequence[str]) -> bool:
    prev = "O"
    for tag in tags:
        if tag not in TAG_TO_ID:
            return False
        if tag.startswith("I-") and prev != "B-" + tag[2:] and prev != tag:
            return False
        prev = tag
    return True
