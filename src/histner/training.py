"""Optimization loops for the three training modes, evaluation grouped by
region and entity, the inter-regional train/eval matrix, and embedding
export.

Modes and their gradient routing, for a batch loss pair (L_y, L_d), as
``_routing`` gives them:

* baseline   backpropagates L_y alone; the domain head receives nothing.
* grad_rev   backpropagates L_y + L_d, with a scale-by(-lambda) node
  between the features and the domain head: the domain head trains
  normally while the extractor receives the reversed, scaled gradient.
* loss_rev   backpropagates the single scalar L_y - lambda * L_d
  everywhere, so the domain head itself also receives reversed, scaled
  gradients.

Both losses are means over the tokens of the batch, which keeps lambda's
effective scale independent of batch size.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, ClassVar, Iterable, Iterator, Sequence

import numpy as np

from . import autodiff as ad
from . import model as m
from .corpus import (Region, Sentence, TAG_ALPHABET, check_config, format_table, iter_sentences,
                     tag_ids)
from .errors import ConfigError, DataError, HistnerError, NonFiniteError, TagError, TrainingError
from .metrics import PRF, accuracy, compare_layers

MODES = ("baseline", "grad_rev", "loss_rev")

#: Gradients by parameter key; the embedding table's may be row-sparse.
Gradients = dict[tuple[str, str], np.ndarray | m.RowSparse]


@dataclass
class TrainConfig:
    mode: str = "baseline"
    epochs: int = 15
    lr: float = 1e-3
    weight_decay: float = 0.01
    batch_size: int = 32
    clip_norm: float = 2.0
    lam: float = 0.1
    seed: int = 0

    BOUNDS: ClassVar[dict] = {"epochs": (1, False), "lr": (0, True), "weight_decay": (0, False),
                              "batch_size": (1, False), "clip_norm": (0, True),
                              "lam": (0, False), "seed": (0, False)}

    def validate(self):
        check_config(self)
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")


@dataclass
class LossBreakdown:
    l_y: float
    l_d: float
    l_total: float


@dataclass
class EncodedSentence:
    windows: np.ndarray
    tag_ids: np.ndarray
    region_id: int

    def __len__(self) -> int:
        return len(self.tag_ids)


def encode_sentences(sentences: Iterable[Sentence], config: m.TaggerConfig) -> list[EncodedSentence]:
    """Encode every sentence of any iterable, read once, in one pass: the token texts are hashed
    in one call and the windows built in one call, over the concatenated ids with
    ``context_window`` padding ids after each sentence, so that no window reaches into the next
    sentence. A sentence without tokens is an error."""
    sentences = list(sentences)
    try:
        gold = tag_ids([s.tags for s in sentences])
    except TagError:
        gold = None
    texts, lengths = [], []
    for i, s in enumerate(sentences):
        if gold is None:  # an unknown tag somewhere: the first sentence at fault raises
            tag_ids([s.tags])
        if len(s.tags) != len(s):
            raise DataError(f"{len(s.tags)} tags for {len(s)} tokens")
        if not len(s):
            raise DataError(f"sentence {i} has no tokens")
        texts.extend(s.token_texts)
        lengths.append(len(s))
    w = config.context_window
    # the k-th token of the list, in sentence j, sits at k + j*w among the padded ids
    at = np.arange(len(texts)) + np.repeat(np.arange(len(lengths)) * w, lengths)
    ids = np.full(len(texts) + len(lengths) * w, config.pad_id, dtype=np.int64)
    ids[at] = m.featurize(texts, config.vocab_size)
    windows = _per_sentence(m.window_matrix(ids, w, config.pad_id)[at], sentences)
    tags = _per_sentence(gold, sentences)
    return [EncodedSentence(win, tag, int(s.region)) for win, tag, s in zip(windows, tags, sentences)]


def _per_sentence(rows: np.ndarray, group: Sequence[Sentence | EncodedSentence]) -> list[np.ndarray]:
    """Cut per-token rows into one view per sentence of the group, in order."""
    ends = np.cumsum([len(s) for s in group]).tolist()
    return [rows[lo:hi] for lo, hi in zip([0] + ends, ends)]


def _region_ids(group: Sequence[EncodedSentence]) -> np.ndarray:
    """The region label of every token of the group, in order."""
    return np.repeat(np.array([s.region_id for s in group], dtype=np.int64), [len(s) for s in group])


# ---------------------------------------------------------------------------
# Losses and gradients
# ---------------------------------------------------------------------------

def _routing(mode: str, lam: float) -> tuple[float | None, float | None]:
    """A mode's ``(scale, weight)``: the scale on the gradient from the features to the domain
    head, and the weight of L_d in the objective; ``None`` leaves out the node or the term."""
    return {"baseline": (None, None), "grad_rev": (-lam, 1.0), "loss_rev": (None, -lam)}[mode]


@np.errstate(over="ignore", invalid="ignore")
def compute_losses(
    params: m.TaggerParams,
    batch: Sequence[EncodedSentence],
    mode: str,
    lam: float,
) -> tuple[LossBreakdown, Gradients]:
    """One combined graph over the batch; returns the loss breakdown and
    the gradients for every parameter (zeros where a head is untouched),
    the embedding table's as a ``RowSparse`` over the rows the batch reads, the only ones it checks."""
    if not batch:
        raise DataError("empty batch")
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}")
    if lam < 0:
        raise ConfigError(f"lambda must be >= 0, got {lam}")
    windows = np.concatenate([s.windows for s in batch], axis=0)
    tags = np.concatenate([s.tag_ids for s in batch])
    regions = _region_ids(batch)
    scale, weight = _routing(mode, lam)
    graph = m.forward_windows(params, windows, domain_grad_scale=scale)
    l_y = ad.mean(ad.softmax_cross_entropy(graph.ner_logits, tags))
    l_d = ad.mean(ad.softmax_cross_entropy(graph.domain_logits, regions))
    # under grad_rev the weight is 1: the reported sum is for monitoring, the scale is the method
    total = l_y if weight is None else ad.add(l_y, ad.mul(l_d, weight))
    ad.backward(total)
    grads = {
        key: graph.embed_gradient() if key == m.EMBED else graph.gradient(key)
        for key, _ in params.items_flat()
    }
    return LossBreakdown(l_y=float(l_y.value), l_d=float(l_d.value), l_total=float(total.value)), grads


def global_grad_norm(grads: Gradients) -> float:
    """The global L2 norm; each share is ``float((g * g).sum())`` of the dense
    gradient, a row-sparse one squared in place in its fresh dense copy."""
    total = 0.0
    for g in grads.values():
        if isinstance(g, m.RowSparse):
            d = g.dense()
            d *= d
        else:
            d = g * g
        total += float(d.sum())
    return float(np.sqrt(total))


def clip_gradients(grads: Gradients, max_norm: float) -> Gradients:
    """Scale all gradients by max_norm/norm when the global L2 norm
    exceeds max_norm; otherwise return them unchanged. The exact norm is
    that of the dense gradients (see ``global_grad_norm``), so a step that
    takes it holds one table-sized array for a moment."""
    # the exact norm is taken only when a rough one, summed in another order,
    # is near or above max_norm: two orders of these sums differ by far less
    # than 1e-6 in relative terms, so below that margin clipping cannot fire
    stored = [g.values if isinstance(g, m.RowSparse) else g for g in grads.values()]
    if np.sqrt(sum(float(np.vdot(a, a)) for a in stored)) <= max_norm * (1 - 1e-6):
        return grads
    norm = global_grad_norm(grads)
    if norm <= max_norm or norm == 0.0:
        return grads
    factor = max_norm / norm
    return {
        key: g.scaled(factor) if isinstance(g, m.RowSparse) else g * factor
        for key, g in grads.items()
    }


# ---------------------------------------------------------------------------
# Adam with decoupled weight decay
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    """Moments by parameter key, each created at the key's first gradient."""

    m: dict[tuple[str, str], np.ndarray] = field(default_factory=dict)
    v: dict[tuple[str, str], np.ndarray] = field(default_factory=dict)
    step: int = 0
    #: Per row-sparse parameter whose moments are held for some rows only,
    #: the sorted rows that every gradient of it falls in, fixed before the
    #: first step; ``m`` and ``v`` hold those rows in that order. ``train()``
    #: holds the rows its training windows read for the table. A key without
    #: an entry has moments of the parameter's shape.
    rows: dict[tuple[str, str], np.ndarray] = field(default_factory=dict)


#: Adam's moment decay rates and the guard added to the update's denominator.
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8

#: Elements per block of the weight decay, so that a block stays in cache
#: between its sum of squares and its product: on a 2-vCPU Xeon host the
#: check and decay of a 2^15 x 64 table take 2.2 ms in this one pass, against
#: 2.4 ms for ``ad.all_finite`` followed by the same blocked decay; the decay
#: alone takes 1.6 ms blocked and 3.0 ms as one whole-table operation.
_DECAY_BLOCK = 32768


def _decay(arr: np.ndarray, factor: float) -> bool:
    """``arr -= factor * arr`` in place (not at all for a 0 ``factor``), a block of rows at a
    time through one buffer; returns whether ``arr`` was finite, checked by ``ad.all_finite``
    block by block before the block's decay."""
    rows = max(1, _DECAY_BLOCK // (arr.size // len(arr)))
    buf = np.empty((min(rows, len(arr)), *arr.shape[1:])) if factor else None
    finite = True
    for lo in range(0, len(arr), rows):
        block = arr[lo : lo + rows]
        finite = finite and ad.all_finite(block)
        if factor:
            block -= np.multiply(factor, block, out=buf[: len(block)])
    return finite


def _adam_update(arr, m_, v_, grad, lr: float, t: int) -> None:
    """Step ``t`` of Adam in place of ``arr`` and its moments ``m_`` and
    ``v_``, all of ``grad``'s shape, with two temporaries."""
    # m*b1 + (1-b1)*g, v*b2 + ((1-b2)*g)*g, then (lr*m_hat) / (sqrt(v_hat) + eps),
    # operation for operation as written, so every bit is kept
    tmp = (1 - _BETA1) * grad
    m_ *= _BETA1
    m_ += tmp
    np.multiply(1 - _BETA2, grad, out=tmp)
    tmp *= grad
    v_ *= _BETA2
    v_ += tmp
    np.divide(m_, 1 - _BETA1 ** t, out=tmp)
    tmp *= lr
    denom = v_ / (1 - _BETA2 ** t)
    np.sqrt(denom, out=denom)
    denom += _EPS
    tmp /= denom
    arr -= tmp


def adam_step(
    params: m.TaggerParams,
    grads: Gradients,
    state: AdamState,
    lr: float,
    weight_decay: float = 0.0,
) -> None:
    """Bias-corrected Adam update in place of every parameter that has a
    gradient in ``grads``; the others stay as they are. Weight decay is
    decoupled and applied before the moment update.

    A key with rows in ``state.rows``, as ``train()`` gives the table, takes
    only ``RowSparse`` gradients within those rows, and Adam updates its
    moments and the parameter on those rows alone, with the bits of the
    whole-parameter update that a key without rows gets: a row that has had
    no gradient yet has zero moments and a zero gradient, so its dense
    update is exactly 0, and only the decay, which stays dense, moves it.

    The table's decay pass, made even when ``weight_decay`` is 0, is the
    step's one whole-table check: a non-finite value anywhere in the table
    raises ``NonFiniteError``, and the table may then be partly decayed.
    """
    state.step += 1
    arrays = dict(params.items_flat())
    for key, grad in grads.items():
        arr = arrays[key]
        sparse = isinstance(grad, m.RowSparse)
        shape = (grad.n_rows, *grad.values.shape[1:]) if sparse else grad.shape
        if shape != arr.shape:
            raise DataError(f"gradient shape {shape} != param shape {arr.shape} for {key}")
        rows = state.rows.get(key)
        if rows is not None and not (sparse and np.isin(grad.rows, rows, assume_unique=True).all()):
            raise DataError(f"gradient of {key} outside its {len(rows)} held rows")
        if key == m.EMBED:
            if not _decay(arr, lr * weight_decay):
                raise NonFiniteError(m.TABLE_NOT_FINITE)
        elif weight_decay:
            _decay(arr, lr * weight_decay)
        target = arr if rows is None else arr[rows]
        if key not in state.m:
            state.m[key], state.v[key] = np.zeros(target.shape), np.zeros(target.shape)
        if sparse:
            at = grad.rows if rows is None else np.searchsorted(rows, grad.rows)
            grad = m.RowSparse(at, grad.values, len(target))
        # densified in the call: a dense gradient bound to a name here took 30 % more page
        # faults and 8 % more time per step of 2^15 x 64 held at a share of 0.5
        _adam_update(target, state.m[key], state.v[key], grad.dense() if sparse else grad, lr,
                     state.step)
        if rows is not None:
            arr[rows] = target


# ---------------------------------------------------------------------------
# Prediction and evaluation
# ---------------------------------------------------------------------------

#: Window rows per forward graph at inference; bounds the graph's memory.
_CHUNK_ROWS = 512


def _forward_chunks(params: m.TaggerParams, encoded: Sequence[EncodedSentence],
                    reduce: Callable) -> Iterator:
    """Check the table, then pack whole sentences in order into runs of at most ``_CHUNK_ROWS`` window
    rows (a longer sentence alone) and yield ``reduce(run, graph)`` of each, one graph at a time."""
    if encoded:
        m.check_table(params)
    lo = rows = 0
    for hi in range(1, len(encoded) + 1):
        rows += len(encoded[hi - 1])
        if hi == len(encoded) or rows + len(encoded[hi]) > _CHUNK_ROWS:
            group, lo, rows = encoded[lo:hi], hi, 0
            yield reduce(group, m.forward_windows(params, np.concatenate([s.windows for s in group])))


def _predict(params: m.TaggerParams, encoded: Sequence[EncodedSentence]) -> np.ndarray:
    """One forward pass: the argmax tag ids and the domain argmax ids of
    every token, flat, as the two rows of one int64 array."""
    def reduce(_, graph):
        heads = (graph.ner_logits, graph.domain_logits)
        return np.stack([np.argmax(logits.value, axis=1) for logits in heads])

    return np.concatenate([np.empty((2, 0), np.int64), *_forward_chunks(params, encoded, reduce)],
                          axis=1)


def predict_encoded(params: m.TaggerParams, encoded: Sequence[EncodedSentence]) -> list[np.ndarray]:
    """Argmax tag ids per sentence."""
    return _per_sentence(_predict(params, encoded)[0], encoded)


def predict_corpus(params: m.TaggerParams, sentences: Iterable[Sentence]) -> list[list[str]]:
    encoded = encode_sentences(sentences, params.config)
    return [[TAG_ALPHABET[i] for i in ids] for ids in predict_encoded(params, encoded)]


def domain_accuracy(params: m.TaggerParams, sentences: Iterable[Sentence]) -> float:
    """Per-token accuracy of the domain head against the region labels."""
    encoded = encode_sentences(sentences, params.config)
    if not encoded:
        raise DataError("empty subset")
    return accuracy(_region_ids(encoded), _predict(params, encoded)[1])


@dataclass
class RegionScore:
    accuracy: float
    f1: PRF


@dataclass
class EvalReport:
    per_region: dict[Region, RegionScore]
    per_label: dict[str, PRF]
    overall_accuracy: float
    overall_f1: PRF

    def to_json_dict(self) -> dict:
        return {
            "overall": {
                "accuracy": self.overall_accuracy,
                **self.overall_f1.to_json_dict(),
            },
            "per_region": {
                r.display: {"accuracy": s.accuracy, **s.f1.to_json_dict()}
                for r, s in self.per_region.items()
            },
            "per_label": {name: p.to_json_dict() for name, p in self.per_label.items()},
        }

    def render_text(self) -> str:
        rows = []
        for region, score in self.per_region.items():
            rows.append([region.display, f"{100 * score.accuracy:.2f}", f"{100 * score.f1.f1:.2f}"])
        rows.append(["Total", f"{100 * self.overall_accuracy:.2f}", f"{100 * self.overall_f1.f1:.2f}"])
        region_table = format_table(["Region", "Acc", "F1"], rows)
        label_rows = [[name, f"{100 * prf.f1:.2f}"] for name, prf in self.per_label.items()]
        label_table = format_table(["Entity", "F1"], label_rows)
        return region_table + "\n\n" + label_table


def _score(encoded: Sequence[EncodedSentence], pred: np.ndarray) -> EvalReport:
    """Score the flat predicted tag ids against the encoded gold tags, per region and overall."""
    gold = np.concatenate([s.tag_ids for s in encoded])
    (acc, report), by_region = compare_layers(gold, pred, [len(s) for s in encoded],
                                              [s.region_id for s in encoded], accuracy)
    return EvalReport(per_region={r: RegionScore(a, f.overall) for r, (a, f) in by_region.items()},
                      per_label={l.name: p for l, p in report.per_label.items()},
                      overall_accuracy=acc, overall_f1=report.overall)


def evaluate(params: m.TaggerParams, sentences: Iterable[Sentence]) -> EvalReport:
    """Accuracy and strict F1 grouped by region, strict F1 per entity."""
    encoded = encode_sentences(sentences, params.config)
    if not encoded:
        raise DataError("empty evaluation subset")
    return _score(encoded, _predict(params, encoded)[0])


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

@dataclass
class TrainResult:
    best_params: m.TaggerParams
    final_params: m.TaggerParams
    history: list[dict]
    best_epoch: int

    def history_json(self) -> str:
        return json.dumps(self.history, indent=2, sort_keys=True) + "\n"


def train(
    train_sentences: Iterable[Sentence],
    valid_sentences: Iterable[Sentence],
    tagger_config: m.TaggerConfig,
    config: TrainConfig,
) -> TrainResult:
    """Seeded, deterministic training; returns the best-validation-F1
    checkpoint (ties to the earlier epoch) alongside the final one."""
    config.validate()
    tagger_config.validate()
    train_sentences, valid_sentences = list(train_sentences), list(valid_sentences)
    if not train_sentences:
        raise DataError("empty train split")
    if not valid_sentences:
        raise DataError("empty valid split")
    params = m.init_params(tagger_config)
    encoded = encode_sentences(train_sentences, tagger_config)
    valid_encoded = encode_sentences(valid_sentences, tagger_config)
    # every epoch visits every training sentence once
    train_tokens = sum(len(s) for s in encoded)
    valid_regions = _region_ids(valid_encoded)
    # every row a batch can read is known before the first step
    state = AdamState(rows={m.EMBED: np.unique(np.concatenate([s.windows for s in encoded]))})
    _, weight = _routing(config.mode, config.lam)
    rng = np.random.default_rng(config.seed)
    history: list[dict] = []
    best_f1 = -1.0
    best_epoch = -1
    best_params = params.copy()
    for epoch in range(config.epochs):
        order = rng.permutation(len(encoded))
        epoch_ly = epoch_ld = 0.0
        for lo in range(0, len(order), config.batch_size):
            batch = [encoded[i] for i in order[lo : lo + config.batch_size]]
            try:
                breakdown, grads = compute_losses(params, batch, config.mode, config.lam)
                grads = clip_gradients(grads, config.clip_norm)
                adam_step(params, grads, state, config.lr, config.weight_decay)
            except HistnerError as exc:
                raise TrainingError(f"epoch {epoch}, batch at {lo}: {exc}") from exc
            n_tok = sum(len(s) for s in batch)
            epoch_ly += breakdown.l_y * n_tok
            epoch_ld += breakdown.l_d * n_tok
        try:
            pred, domain_pred = _predict(params, valid_encoded)
            valid_report = _score(valid_encoded, pred)
        except HistnerError as exc:
            raise TrainingError(f"epoch {epoch}, validation: {exc}") from exc
        l_y = epoch_ly / train_tokens
        l_d = epoch_ld / train_tokens
        history.append(
            {
                "epoch": epoch,
                "l_y": l_y,
                "l_d": l_d,
                "l_total": l_y if weight is None else l_y + weight * l_d,
                "valid_f1": valid_report.overall_f1.f1,
                "valid_acc": valid_report.overall_accuracy,
                "valid_domain_acc": accuracy(valid_regions, domain_pred),
            }
        )
        if valid_report.overall_f1.f1 > best_f1:
            best_f1 = valid_report.overall_f1.f1
            best_epoch = epoch
            for (_, best), (_, arr) in zip(best_params.items_flat(), params.items_flat()):
                np.copyto(best, arr)
    return TrainResult(
        best_params=best_params,
        final_params=params,
        history=history,
        best_epoch=best_epoch,
    )


#: Sentences per domain-probe batch.
_PROBE_BATCH = 32


@np.errstate(over="ignore", invalid="ignore")
def fit_domain_probe(
    params: m.TaggerParams,
    sentences: Iterable[Sentence],
    epochs: int = 10,
    lr: float = 1e-3,
    seed: int = 0,
) -> m.TaggerParams:
    """Retrain only the domain head on frozen features.

    Measures how much region information the feature extractor retains.
    The probe shares its frozen groups, extractor and NER head, with
    ``params`` as read-only views, so an in-place write to one of them
    raises ``ValueError``; ``probe.copy()`` gives writable ones. Only the
    domain head is the probe's own. The features are computed once; each
    step trains the head on the rows of its batch's tokens.
    """
    TrainConfig(epochs=epochs, lr=lr, seed=seed).validate()

    def frozen(group: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        views = {k: v.view() for k, v in group.items()}
        for view in views.values():
            view.flags.writeable = False
        return views

    probe = m.TaggerParams(params.config, frozen(params.extractor), frozen(params.ner_head),
                           {k: v.copy() for k, v in params.domain_head.items()})
    encoded = encode_sentences(sentences, probe.config)
    if not encoded:
        raise DataError("empty probe training set")
    regions = _region_ids(encoded)
    features = np.empty((len(regions), probe.config.hidden_dim))
    at = 0
    for h in _forward_chunks(probe, encoded, lambda _, g: g.features.value):
        features[at : at + len(h)] = h
        at += len(h)
        del h  # frees this chunk's rows before the next chunk's graph is built
    token_rows = _per_sentence(np.arange(len(regions)), encoded)
    head = probe.domain_head
    state = AdamState()
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        order = rng.permutation(len(encoded))
        for lo in range(0, len(order), _PROBE_BATCH):
            rows = np.concatenate([token_rows[i] for i in order[lo : lo + _PROBE_BATCH]])
            w, b = ad.Node(head["w"]), ad.Node(head["b"])
            logits = ad.add(ad.matmul(ad.Node(features[rows]), w), b)
            ad.backward(ad.mean(ad.softmax_cross_entropy(logits, regions[rows])))
            adam_step(probe, {("domain_head", "w"): w.grad, ("domain_head", "b"): b.grad},
                      state, lr)
    return probe


# ---------------------------------------------------------------------------
# Inter-regional matrix and embedding export
# ---------------------------------------------------------------------------

@dataclass
class InterRegionalResult:
    regions: list[Region]
    matrix: np.ndarray  # [train_region, eval_region] strict F1

    def to_json_dict(self) -> dict:
        return {
            "regions": [r.display for r in self.regions],
            "f1": [[float(v) for v in row] for row in self.matrix],
        }

    def render_text(self) -> str:
        headers = ["train \\ eval"] + [r.display for r in self.regions]
        rows = []
        for i, region in enumerate(self.regions):
            rows.append([region.display] + [f"{100 * v:.2f}" for v in self.matrix[i]])
        return format_table(headers, rows)


def inter_regional(
    splits,
    tagger_config: m.TaggerConfig,
    config: TrainConfig,
) -> InterRegionalResult:
    """Train one model per region and evaluate it on every region's test
    sentences; the diagonal is the intra-regional score. Each model picks
    its best epoch on its own region's validation sentences, never on the
    test sentences it is scored on, and is evaluated once, over the whole
    test split, as soon as it is trained."""
    regions = list(Region)
    parts = {"training": splits.train, "validation": splits.valid, "evaluation": splits.test}
    by_region = {r: [[s for s in iter_sentences(part) if s.region == r] for part in parts.values()]
                 for r in regions}
    for r in regions:
        for name, subset in zip(parts, by_region[r]):
            if not subset:
                raise DataError(f"region {r.display} has no {name} sentences")

    matrix = np.zeros((len(regions), len(regions)))
    for i, r in enumerate(regions):
        trained = train(*by_region[r][:2], tagger_config, config).best_params
        per_region = evaluate(trained, iter_sentences(splits.test)).per_region
        matrix[i] = [per_region[eval_region].f1.f1 for eval_region in regions]
    return InterRegionalResult(regions=regions, matrix=matrix)


#: The three ASCII digits of each of 0..999, as the low bytes of an int64.
_DIGITS = np.array([int.from_bytes(b"%03d" % i, "little") for i in range(1000)])


def _tsv_cells(x: np.ndarray) -> np.ndarray:
    """``'%.6f' % v`` of each ``v`` of the 2-D ``x``, exactly, for |v| <= 1: ten bytes a value,
    the sign (``-``, or 0 for none), ``q.dddddd`` and a tab, or a newline after a row's last.
    ``|v| * 1e6`` rounds to an integer, ties to even, as ``%`` rounds the exact binary value."""
    a = np.abs(x)
    p, hi = a * 1e6, 134217729.0 * a
    hi -= hi - a  # a's upper 26 bits (Veltkamp), so with 1e6's 14 bits err is exact (Dekker)
    err = (hi * 1e6 - p) + (a - hi) * 1e6
    # a rounded product that is a half-integer goes to the side of its exact error, if any
    n = np.where((p % 1 == 0.5) & (err != 0), np.floor(p) + (err > 0), np.rint(p)).astype(np.int64)
    word = (n // 10**6 + (ord("0") | ord(".") << 8) | _DIGITS[n // 1000 % 1000] << 16
            | _DIGITS[n % 1000] << 40)
    out = np.empty((*x.shape, 10), np.uint8)
    out[..., 0] = np.signbit(x) * ord("-")
    out[..., 1:9] = word.astype("<i8")[..., None].view(np.uint8)
    out[..., 9], out[:, -1, 9] = ord("\t"), ord("\n")
    return out


def dumps_embeddings(params: m.TaggerParams, sentences: Iterable[Sentence]) -> str:
    """One TSV row per sentence: region name, then the mean feature vector over its tokens as
    ``'%.6f'`` writes it; means of tanh features lie in [-1, 1], where ``_tsv_cells`` is exact."""
    names = [f"{r.display}\t".encode() for r in Region]

    def reduce(group, graph):
        means = np.array([h.mean(axis=0) for h in _per_sentence(graph.features.value, group)])
        rows = b"".join(names[e.region_id] + row.tobytes() for e, row in zip(group, _tsv_cells(means)))
        return rows.replace(b"\0", b"").decode()

    return "".join(_forward_chunks(params, encode_sentences(sentences, params.config), reduce))


def export_embeddings(
    params: m.TaggerParams, sentences: Iterable[Sentence], path: str | Path
) -> None:
    """``dumps_embeddings`` written to ``path``."""
    Path(path).write_text(dumps_embeddings(params, sentences), encoding="utf-8")
