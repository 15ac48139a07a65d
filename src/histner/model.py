"""Windowed feed-forward token tagger with a shared feature extractor,
an NER head, and a per-token domain-discriminator head.

Tokens are lowercased and hashed (64-bit FNV-1a, modulo the vocabulary
size) into an embedding table. Each token's feature vector is a tanh
layer over the concatenated embeddings of a fixed window around it; a
dedicated padding row covers positions beyond sentence boundaries. Both
heads are linear maps on the same features.
"""

from __future__ import annotations

import json
import lzma
import tokenize
import zipfile
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import ClassVar, Iterable, Sequence

import numpy as np

from . import autodiff as ad
from .corpus import Region, TAG_ALPHABET, check_config
from .errors import ConfigError, DataError, NonFiniteError, ShapeError

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64 = (1 << 64) - 1

CHECKPOINT_VERSION = 1

#: What reading a damaged checkpoint file raises: numpy parses an array's
#: header with ``tokenize``, ``zipfile`` raises ``RuntimeError`` for an
#: entry flagged as encrypted, and an entry's flagged decompressor raises
#: its own error on bytes it cannot decode. ``bz2`` raises ``OSError``,
#: which only the entry reads catch, so that a missing file keeps
#: ``cli.main``'s own message.
_UNREADABLE = (ValueError, EOFError, RuntimeError, NotImplementedError,
               zipfile.BadZipFile, tokenize.TokenError, zlib.error, lzma.LZMAError)


def _fnv1a(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _U64
    return h


@dataclass
class TaggerConfig:
    vocab_size: int = 2**15
    embed_dim: int = 64
    hidden_dim: int = 128
    context_window: int = 2
    seed: int = 0

    BOUNDS: ClassVar[dict] = {"vocab_size": (1, False), "embed_dim": (1, False),
                              "hidden_dim": (1, False), "context_window": (1, False),
                              "seed": (0, False)}
    validate = check_config

    @property
    def input_dim(self) -> int:
        return (2 * self.context_window + 1) * self.embed_dim

    @property
    def pad_id(self) -> int:
        # the extra embedding row used beyond sentence boundaries
        return self.vocab_size


@dataclass
class TaggerParams:
    """Parameter store with an explicit, disjoint three-way partition."""

    config: TaggerConfig
    extractor: dict[str, np.ndarray]
    ner_head: dict[str, np.ndarray]
    domain_head: dict[str, np.ndarray]

    def groups(self) -> dict[str, dict[str, np.ndarray]]:
        return {
            "extractor": self.extractor,
            "ner_head": self.ner_head,
            "domain_head": self.domain_head,
        }

    def items_flat(self) -> Iterable[tuple[tuple[str, str], np.ndarray]]:
        for group_name, group in self.groups().items():
            for name, arr in group.items():
                yield (group_name, name), arr

    def copy(self) -> "TaggerParams":
        return TaggerParams(self.config, **{name: {k: v.copy() for k, v in group.items()}
                                            for name, group in self.groups().items()})

    def save(self, path: str | Path) -> None:
        # np.savez's layout, each array written from its own buffer: numpy's
        # writer copies an array in blocks of up to 16 MB first
        meta = {"version": CHECKPOINT_VERSION, "config": asdict(self.config)}
        arrays = {"__meta__": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
                  **{f"{g}.{n}": arr for (g, n), arr in self.items_flat()}}
        with zipfile.ZipFile(path, "w") as zf:
            for name, arr in arrays.items():
                arr = np.ascontiguousarray(arr)  # no copy of a parameter, which is C-ordered
                with zf.open(f"{name}.npy", "w", force_zip64=True) as fh:
                    np.lib.format.write_array_header_1_0(
                        fh, np.lib.format.header_data_from_array_1_0(arr))
                    fh.write(memoryview(arr).cast("B"))

    @classmethod
    def load(cls, path: str | Path) -> "TaggerParams":
        try:
            data = np.load(path)
        except _UNREADABLE as exc:
            raise DataError(f"{path}: not a tagger checkpoint ({exc!r})") from exc
        if not isinstance(data, np.lib.npyio.NpzFile) or "__meta__" not in data:
            raise DataError(f"{path}: not a tagger checkpoint")
        with data:
            try:
                meta = json.loads(bytes(data["__meta__"]).decode())
                if meta["version"] != CHECKPOINT_VERSION:
                    raise DataError(f"{path}: unsupported checkpoint version {meta['version']}")
                values = dict(meta["config"])
                # older checkpoints record the two fixed head sizes
                for key, size in (("n_tags", len(TAG_ALPHABET)), ("n_domains", len(Region))):
                    if values.pop(key, size) != size:
                        raise DataError(f"{path}: checkpoint {key} is not {size}")
                config = TaggerConfig(**values)
                config.validate()
            except (*_UNREADABLE, OSError, TypeError, KeyError, ConfigError) as exc:
                raise DataError(f"{path}: unreadable checkpoint metadata ({exc!r})") from exc
            # each entry read is the parameter itself, so sizes that cannot be
            # allocated end at the missing-entry or shape check
            groups: dict[str, dict[str, np.ndarray]] = {}
            for group, entries in _param_layout(config).items():
                groups[group] = {}
                for name, (shape, _) in entries.items():
                    key = f"{group}.{name}"
                    if key not in data:
                        raise DataError(f"{path}: missing parameter {key}")
                    try:
                        loaded = data[key]
                    except (*_UNREADABLE, OSError) as exc:
                        raise DataError(f"{path}: parameter {key} cannot be loaded ({exc!r})") from exc
                    if loaded.dtype != np.float64 or loaded.shape != shape:
                        raise DataError(f"{path}: parameter {key} is {loaded.dtype} of shape "
                                        f"{loaded.shape}, expected float64 of shape {shape}")
                    arr = np.ascontiguousarray(loaded)  # no copy of a C-ordered entry
                    if not ad.all_finite(arr):
                        raise DataError(f"{path}: parameter {key} has non-finite values")
                    groups[group][name] = arr
        return cls(config, **groups)


def _param_layout(config: TaggerConfig) -> dict[str, dict[str, tuple[tuple[int, ...], int | None]]]:
    """Each parameter's shape and the fan-in of its seeded init (``None`` for
    a zero bias), by group, in the order ``init_params`` draws them."""
    return {
        "extractor": {"embed": ((config.vocab_size + 1, config.embed_dim), config.embed_dim),
                      "w_hidden": ((config.input_dim, config.hidden_dim), config.input_dim),
                      "b_hidden": ((config.hidden_dim,), None)},
        "ner_head": {"w": ((config.hidden_dim, len(TAG_ALPHABET)), config.hidden_dim),
                     "b": ((len(TAG_ALPHABET),), None)},
        "domain_head": {"w": ((config.hidden_dim, len(Region)), config.hidden_dim),
                        "b": ((len(Region),), None)},
    }


def init_params(config: TaggerConfig) -> TaggerParams:
    """Seeded uniform init scaled by 1/sqrt(fan_in); zero biases."""
    config.validate()
    rng = np.random.default_rng(config.seed)

    def init(shape, fan_in):
        # a size numpy cannot allocate is a ConfigError at the first parameter it reaches
        try:
            if fan_in is None:
                return np.zeros(shape)
            bound = 1.0 / np.sqrt(float(fan_in))
            return rng.uniform(-bound, bound, size=shape)
        except (ValueError, OverflowError, MemoryError) as exc:
            raise ConfigError(f"cannot allocate a {shape} parameter for {config} ({exc})") from exc

    return TaggerParams(config, **{
        group: {name: init(shape, fan_in) for name, (shape, fan_in) in entries.items()}
        for group, entries in _param_layout(config).items()})


def featurize(token_texts: Sequence[str], vocab_size: int) -> np.ndarray:
    """Case-folded FNV-1a hash of each token, reduced mod vocab_size; each
    distinct text is hashed once."""
    ids = {t: _fnv1a(t.lower().encode("utf-8")) % vocab_size for t in set(token_texts)}
    return np.array([ids[t] for t in token_texts], dtype=np.int64)


def window_matrix(ids: np.ndarray, window: int, pad_id: int) -> np.ndarray:
    """(n, 2w+1) id matrix; out-of-sentence slots hold the padding id."""
    pad = np.full(window, pad_id, dtype=np.int64)
    padded = np.concatenate([pad, np.asarray(ids, dtype=np.int64), pad])
    return np.stack([padded[k : k + len(ids)] for k in range(2 * window + 1)], axis=1)


#: The embedding table's key; its gradient is row-sparse.
EMBED = ("extractor", "embed")


@dataclass
class RowSparse:
    """The gradient of a table that is exactly 0 outside ``rows``: the sorted,
    unique ``rows`` of a table with ``n_rows`` rows, and their ``values``."""

    rows: np.ndarray
    values: np.ndarray
    n_rows: int

    def dense(self) -> np.ndarray:
        out = np.zeros((self.n_rows, self.values.shape[1]))
        out[self.rows] = self.values
        return out

    def scaled(self, factor: float) -> "RowSparse":
        return RowSparse(self.rows, self.values * factor, self.n_rows)


@dataclass
class ForwardGraph:
    """The graph of one forward pass. ``leaves`` holds every parameter but
    the embedding table; the table's window rows enter as the ``inputs``
    leaf, gathered outside the graph."""

    leaves: dict[tuple[str, str], ad.Node]
    inputs: ad.Node
    win_ids: np.ndarray
    n_table_rows: int
    features: ad.Node
    ner_logits: ad.Node
    domain_logits: ad.Node

    def embed_gradient(self) -> RowSparse:
        """The table's gradient over the rows the windows read.

        Each row sums its window slots' gradients in the order a graph of
        per-slot lookups accumulates them (slot 2w first, down to slot 0;
        tokens in order within a slot), one in-order scatter per slot over
        the flattened elements, so each sum is bitwise the dense scatter's.
        """
        n, slots = self.win_ids.shape
        grad = self.inputs.grad.reshape(n, slots, -1)
        width = grad.shape[2]
        rows, row_of_id = np.unique(self.win_ids, return_inverse=True)
        start = row_of_id.reshape(n, slots) * width  # where each id's row starts in the values
        values = np.zeros(len(rows) * width)
        for slot in reversed(range(slots)):
            np.add.at(values, (start[:, slot, None] + np.arange(width)).ravel(), grad[:, slot].ravel())
        return RowSparse(rows, values.reshape(len(rows), width), self.n_table_rows)

    def gradient(self, key: tuple[str, str]) -> np.ndarray:
        """A leaf's dense gradient; the table's is ``embed_gradient``."""
        leaf = self.leaves[key]
        return leaf.grad if leaf.grad is not None else np.zeros_like(leaf.value)


@np.errstate(over="ignore", invalid="ignore")
def forward_windows(
    params: TaggerParams,
    win_ids: np.ndarray,
    domain_grad_scale: float | None = None,
) -> ForwardGraph:
    """Run the tagger over a precomputed window-id matrix.

    The window rows of the embedding table are gathered outside the graph,
    so a pass costs nothing per table row; it checks the rows it reads, and
    callers check the whole table (``check_table``) once per call. When
    ``domain_grad_scale`` is set, a gradient-scaling node is inserted
    between the features and the domain head, leaving values untouched.
    """
    if win_ids.ndim != 2 or win_ids.shape[1] != 2 * params.config.context_window + 1:
        raise ShapeError(f"window matrix has shape {win_ids.shape}")
    if win_ids.shape[0] == 0:
        raise DataError("empty sentence")
    win_ids = np.asarray(win_ids, dtype=np.int64)
    table = params.extractor["embed"]
    if win_ids.min() < 0 or win_ids.max() >= table.shape[0]:
        raise ShapeError(f"window id outside the embedding table with {table.shape[0]} rows")
    leaves = {key: ad.Node(arr) for key, arr in params.items_flat() if key != EMBED}
    x = ad.Node(table[win_ids].reshape(len(win_ids), -1))
    h = ad.tanh(ad.add(ad.matmul(x, leaves[("extractor", "w_hidden")]),
                       leaves[("extractor", "b_hidden")]))
    ner_logits = ad.add(ad.matmul(h, leaves[("ner_head", "w")]), leaves[("ner_head", "b")])
    h_domain = ad.scale_gradient(h, domain_grad_scale) if domain_grad_scale is not None else h
    domain_logits = ad.add(ad.matmul(h_domain, leaves[("domain_head", "w")]),
                           leaves[("domain_head", "b")])
    return ForwardGraph(leaves, x, win_ids, table.shape[0], h, ner_logits, domain_logits)


#: What a whole-table check raises, at inference and in a training step's decay pass.
TABLE_NOT_FINITE = "embedding table has non-finite values"


def check_table(params: TaggerParams) -> None:
    """Raise ``NonFiniteError`` unless the whole embedding table is finite."""
    if not ad.all_finite(params.extractor["embed"]):
        raise NonFiniteError(TABLE_NOT_FINITE)


def predict_tags(params: TaggerParams, token_texts: Sequence[str]) -> list[str]:
    """Argmax NER tags for one sentence of raw token strings."""
    cfg = params.config
    win = window_matrix(featurize(token_texts, cfg.vocab_size), cfg.context_window, cfg.pad_id)
    check_table(params)
    graph = forward_windows(params, win)
    return [TAG_ALPHABET[i] for i in np.argmax(graph.ner_logits.value, axis=1)]
