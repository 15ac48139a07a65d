"""Reverse-mode automatic differentiation over dense float64 arrays.

Just enough engine for a windowed feed-forward tagger with two softmax
heads: a handful of forward ops and a gradient-scaling pass-through. Graphs
are built per minibatch and discarded; there is no persistent tape. The
finite-difference checker, the node-by-node product and the difference,
which only the gradient tests run, live with the reference ops in
``tests/reference_ops.py``.

A gradient is made at its first contribution and later ones are added out
of place, so nodes may share a gradient array and none is written after it
is set.
"""

from __future__ import annotations

import numpy as np

from .errors import GraphError, NonFiniteError, ShapeError


def all_finite(arr: np.ndarray) -> bool:
    """Whether every element of ``arr`` is finite, in one read unless it holds huge values."""
    # a NaN or an infinity makes the sum of squares non-finite, and no term can
    # cancel it; only a sum that overflows needs the element-wise check. vdot,
    # unlike matmul, reports no overflow warning.
    return bool(np.isfinite(np.vdot(arr, arr)) or np.isfinite(arr).all())


class Node:
    """One value in the graph: data, a gradient slot, and a backward rule."""

    __slots__ = ("value", "grad", "parents", "op", "_backward", "_backward_ran")

    def __init__(self, value, parents=(), backward=None, op="leaf"):
        self.value = np.asarray(value, dtype=np.float64)
        if not all_finite(self.value):
            raise NonFiniteError(f"op '{op}' produced non-finite values")
        self.grad: np.ndarray | None = None
        self.parents: tuple[Node, ...] = tuple(parents)
        self.op = op
        self._backward = backward
        self._backward_ran = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __repr__(self) -> str:
        return f"Node(op={self.op!r}, shape={self.shape})"


def _accumulate(node: Node, g: np.ndarray) -> None:
    """Add ``g`` to ``node.grad`` out of place, or make it the gradient."""
    node.grad = g if node.grad is None else node.grad + g


def _topo_order(root: Node) -> list[Node]:
    order: list[Node] = []
    visited = {id(root)}
    stack: list[tuple[Node, int]] = [(root, 0)]
    while stack:
        node, i = stack.pop()
        while i < len(node.parents) and id(node.parents[i]) in visited:
            i += 1
        if i < len(node.parents):
            stack.append((node, i + 1))
            child = node.parents[i]
            visited.add(id(child))
            stack.append((child, 0))
        else:
            order.append(node)
    return order


# Graph values and backward products are computed with numpy's overflow and
# invalid-value warnings off, here and at every function that builds a graph:
# each value still passes ``all_finite``, so a diverged run ends in the
# ``NonFiniteError`` that names the op, with no RuntimeWarning before it.
@np.errstate(over="ignore", invalid="ignore")
def backward(loss: Node) -> None:
    """Populate ``grad`` on every node reachable from a scalar loss; the
    others keep ``None``. Nothing is zero-filled: a node's first contribution
    is its gradient, later ones are added out of place, and no gradient array
    is written after it is set."""
    if loss.value.shape != ():
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.value.shape}")
    if loss._backward_ran:
        raise GraphError("backward already ran on this graph; build a fresh graph")
    loss._backward_ran = True
    order = _topo_order(loss)
    for node in order:
        node.grad = None
    loss.grad = np.ones_like(loss.value)
    for node in reversed(order):
        if node._backward is not None:
            node._backward(node.grad)


def _require_2d(a: Node, op: str) -> None:
    if a.value.ndim != 2:
        raise ShapeError(f"{op}: expected a 2-D array, got shape {a.shape}")


def add(a: Node, b: Node) -> Node:
    """Elementwise sum; also supports adding a row vector to a matrix."""
    row = a.value.ndim == 2 and b.value.ndim == 1 and a.shape[1] == b.shape[0]
    if a.shape != b.shape and not row:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")

    def bw(g):
        _accumulate(a, g)
        _accumulate(b, g.sum(axis=0) if row else g)

    return Node(a.value + b.value, (a, b), bw, "add")


def mul(a: Node, factor: float) -> Node:
    """Elementwise product with a plain scalar."""
    factor = float(factor)

    def bw(g):
        _accumulate(a, g * factor)

    return Node(a.value * factor, (a,), bw, "mul")


def matmul(a: Node, b: Node) -> Node:
    _require_2d(a, "matmul")
    _require_2d(b, "matmul")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")

    def bw(g):
        _accumulate(a, g @ b.value.T)
        _accumulate(b, a.value.T @ g)

    return Node(a.value @ b.value, (a, b), bw, "matmul")


def tanh(x: Node) -> Node:
    out_value = np.tanh(x.value)

    def bw(g):
        _accumulate(x, g * (1.0 - out_value * out_value))

    return Node(out_value, (x,), bw, "tanh")


def mean(x: Node) -> Node:
    size = x.value.size
    if size == 0:
        raise ShapeError("mean: empty input")

    def bw(g):
        _accumulate(x, np.full_like(x.value, g / size))

    return Node(x.value.mean(), (x,), bw, "mean")


def softmax_cross_entropy(logits: Node, targets) -> Node:
    """Cross entropy of softmax(logits) against integer targets: for a
    (n, C) logits matrix and (n,) targets, the (n,) loss vector."""
    _require_2d(logits, "softmax_cross_entropy")
    v = logits.value
    t = np.asarray(targets, dtype=np.int64)
    if t.shape != (v.shape[0],):
        raise ShapeError(
            f"softmax_cross_entropy: targets shape {t.shape} for logits {v.shape}"
        )
    if t.size and (t.min() < 0 or t.max() >= v.shape[1]):
        raise ShapeError("softmax_cross_entropy: target index out of range")
    shifted = v - v.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - lse
    rows = np.arange(v.shape[0])
    probs = np.exp(logp)

    def bw(g):
        delta = probs.copy()
        delta[rows, t] -= 1.0
        _accumulate(logits, delta * g[:, None])

    return Node(-logp[rows, t], (logits,), bw, "softmax_cross_entropy")


def scale_gradient(x: Node, factor: float) -> Node:
    """Identity on values; multiplies the backward gradient by ``factor``.

    With factor = -lambda this is a gradient-reversal layer.
    """
    factor = float(factor)

    def bw(g):
        _accumulate(x, factor * g)

    return Node(x.value, (x,), bw, "scale_gradient")
