"""Optimization loops for the three training modes, evaluation grouped by
region and entity, the inter-regional train/eval matrix, and embedding
export.

Modes and their gradient routing, for a batch loss pair (L_y, L_d):

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
from typing import Callable, ClassVar, Iterator, Sequence

import numpy as np

from . import autodiff as ad
from . import model as m
from .corpus import (Region, Sentence, TAG_ALPHABET, TAG_TO_ID, check_config, decode_iob,
                     format_table, iter_sentences)
from .errors import ConfigError, DataError, HistnerError, TagError, TrainingError
from .metrics import PRF, StrictF1Report, span_counts

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


def encode_sentences(sentences: Sequence[Sentence], config: m.TaggerConfig) -> list[EncodedSentence]:
    """Encode every sentence in one pass: the token texts are hashed in one
    call and the windows built in one call, over the concatenated ids with
    ``context_window`` padding ids after each sentence, so that no window
    reaches into the next sentence. A sentence without tokens is an error."""
    texts, tag_ids, lengths = [], [], []
    for i, s in enumerate(sentences):
        try:
            tag_ids.extend(TAG_TO_ID[t] for t in s.tags)
        except KeyError as exc:
            raise TagError(f"unknown tag {exc.args[0]!r}")
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
    tags = _per_sentence(np.array(tag_ids, dtype=np.int64), sentences)
    return [EncodedSentence(win, tag, int(s.region)) for win, tag, s in zip(windows, tags, sentences)]


def _per_sentence(rows: np.ndarray, group: Sequence[Sentence | EncodedSentence]) -> list[np.ndarray]:
    """Cut per-token rows into one view per sentence of the group, in order."""
    ends = np.cumsum([len(s) for s in group]).tolist()
    return [rows[lo:hi] for lo, hi in zip([0] + ends, ends)]


def _region_ids(group: Sequence[EncodedSentence]) -> np.ndarray:
    """The region label of every token of the group, in order."""
    return np.concatenate([np.full(len(s), s.region_id, dtype=np.int64) for s in group])


# ---------------------------------------------------------------------------
# Losses and gradients
# ---------------------------------------------------------------------------

@np.errstate(over="ignore", invalid="ignore")
def compute_losses(
    params: m.TaggerParams,
    batch: Sequence[EncodedSentence],
    mode: str,
    lam: float,
) -> tuple[LossBreakdown, Gradients]:
    """One combined graph over the batch; returns the loss breakdown and
    the gradients for every parameter (zeros where a head is untouched),
    the embedding table's as a ``RowSparse`` over the rows the batch reads."""
    if not batch:
        raise DataError("empty batch")
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}")
    if lam < 0:
        raise ConfigError(f"lambda must be >= 0, got {lam}")
    windows = np.concatenate([s.windows for s in batch], axis=0)
    tags = np.concatenate([s.tag_ids for s in batch])
    regions = _region_ids(batch)
    scale = -lam if mode == "grad_rev" else None
    graph = m.forward_windows(params, windows, domain_grad_scale=scale)
    l_y = ad.mean(ad.softmax_cross_entropy(graph.ner_logits, tags))
    l_d = ad.mean(ad.softmax_cross_entropy(graph.domain_logits, regions))
    if mode == "baseline":
        total = l_y
    elif mode == "grad_rev":
        # reported sum is for monitoring; the routing defines the method
        total = ad.add(l_y, l_d)
    else:
        total = ad.sub(l_y, ad.mul(l_d, lam))
    ad.backward(total)
    grads = {
        key: graph.embed_gradient() if key == m.EMBED else graph.gradient(key)
        for key, _ in params.items_flat()
    }
    return LossBreakdown(l_y=float(l_y.value), l_d=float(l_d.value), l_total=float(total.value)), grads


def _squared_sum(grad: np.ndarray | m.RowSparse) -> float:
    return grad.squared_sum() if isinstance(grad, m.RowSparse) else float((grad * grad).sum())


def global_grad_norm(grads: Gradients) -> float:
    return float(np.sqrt(sum(_squared_sum(g) for g in grads.values())))


def clip_gradients(grads: Gradients, max_norm: float) -> Gradients:
    """Scale all gradients by max_norm/norm when the global L2 norm
    exceeds max_norm; otherwise return them unchanged. A row-sparse
    gradient's norm is taken over its stored rows: the others are 0."""
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
    #: Per row-sparse parameter, a mask of the rows that have ever had a
    #: gradient.
    touched: dict[tuple[str, str], np.ndarray] = field(default_factory=dict)


#: Adam's moment decay rates and the guard added to the update's denominator.
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8

#: A row-sparse gradient updates only the ever-touched rows while they are
#: at most this share of the table; above it the whole table is updated.
#: Both give the same bits. On a 2-vCPU Xeon host, Adam on a 2^15 x 64
#: table costs the same both ways at a share of about one half.
_SPARSE_SHARE = 0.5

#: Elements per block of the weight decay, so that a block's product stays
#: in cache: on a 2-vCPU Xeon host the decay of a 2^15 x 64 table takes
#: 2.4 ms this way and 6.4 ms in one pass.
_DECAY_BLOCK = 32768


def _decay(arr: np.ndarray, factor: float) -> None:
    """``arr -= factor * arr`` in place, a block of rows at a time."""
    rows = max(1, _DECAY_BLOCK // (arr.size // len(arr)))
    for lo in range(0, len(arr), rows):
        block = arr[lo : lo + rows]
        block -= factor * block


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

    A ``RowSparse`` gradient updates the moments and the parameter on the
    rows that have ever had a gradient, while they are at most
    ``_SPARSE_SHARE`` of the table; beyond that, on the whole table. Every
    other row has zero moments and a zero gradient, so its dense update is
    exactly 0; only the decay, which stays dense, moves it.
    """
    state.step += 1
    arrays = dict(params.items_flat())
    for key, grad in grads.items():
        arr = arrays[key]
        sparse = isinstance(grad, m.RowSparse)
        shape = (grad.n_rows, *grad.values.shape[1:]) if sparse else grad.shape
        if shape != arr.shape:
            raise DataError(f"gradient shape {shape} != param shape {arr.shape} for {key}")
        if weight_decay:
            _decay(arr, lr * weight_decay)
        if key not in state.m:
            state.m[key] = np.zeros_like(arr)
            state.v[key] = np.zeros_like(arr)
        m_, v_ = state.m[key], state.v[key]
        if sparse:
            touched = state.touched.setdefault(key, np.zeros(len(arr), dtype=bool))
            touched[grad.rows] = True
            rows = np.flatnonzero(touched)
            if len(rows) <= _SPARSE_SHARE * len(arr):
                row_grad = np.zeros((len(rows), *arr.shape[1:]))
                row_grad[np.searchsorted(rows, grad.rows)] = grad.values
                gathered = arr[rows], m_[rows], v_[rows]
                _adam_update(*gathered, row_grad, lr, state.step)
                arr[rows], m_[rows], v_[rows] = gathered
                continue
            grad = grad.dense()
        _adam_update(arr, m_, v_, grad, lr, state.step)


# ---------------------------------------------------------------------------
# Prediction and evaluation
# ---------------------------------------------------------------------------

#: Window rows per forward graph at inference; bounds the graph's memory.
_CHUNK_ROWS = 512


def _forward_chunks(params: m.TaggerParams, encoded: Sequence[EncodedSentence],
                    reduce: Callable) -> Iterator:
    """Pack whole sentences in order into runs of at most ``_CHUNK_ROWS`` window rows (a longer
    sentence alone) and yield ``reduce(run, graph)`` of each; one graph is alive at a time."""
    lo = rows = 0
    for hi in range(1, len(encoded) + 1):
        rows += len(encoded[hi - 1])
        if hi == len(encoded) or rows + len(encoded[hi]) > _CHUNK_ROWS:
            group, lo, rows = encoded[lo:hi], hi, 0
            yield reduce(group, m.forward_windows(params, np.concatenate([s.windows for s in group])))


def _predict(params: m.TaggerParams, encoded: Sequence[EncodedSentence]) -> tuple[list[np.ndarray], int]:
    """One forward pass: the argmax tag ids of each sentence, and the number
    of tokens whose domain argmax is their sentence's region."""
    def reduce(group, graph):
        domain_ids = np.argmax(graph.domain_logits.value, axis=1)
        return (_per_sentence(np.argmax(graph.ner_logits.value, axis=1), group),
                int((domain_ids == _region_ids(group)).sum()))

    chunks = list(_forward_chunks(params, encoded, reduce))
    return [ids for tag_ids, _ in chunks for ids in tag_ids], sum(n for _, n in chunks)


def predict_encoded(params: m.TaggerParams, encoded: Sequence[EncodedSentence]) -> list[np.ndarray]:
    """Argmax tag ids per sentence."""
    return _predict(params, encoded)[0]


def predict_corpus(params: m.TaggerParams, sentences: Sequence[Sentence]) -> list[list[str]]:
    encoded = encode_sentences(sentences, params.config)
    return [[TAG_ALPHABET[i] for i in ids] for ids in predict_encoded(params, encoded)]


def domain_accuracy(params: m.TaggerParams, sentences: Sequence[Sentence]) -> float:
    """Per-token accuracy of the domain head against the region labels."""
    if not sentences:
        raise DataError("empty subset")
    encoded = encode_sentences(sentences, params.config)
    return _predict(params, encoded)[1] / sum(len(s) for s in encoded)


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


def _score(encoded: Sequence[EncodedSentence], gold_spans: list, tag_ids: list[np.ndarray]) -> EvalReport:
    """Score predicted tag ids against the encoded gold tags and the gold
    spans: each sentence's span counts and matched tokens are taken once,
    then summed per region and overall."""
    counts = span_counts(gold_spans, [decode_iob([TAG_ALPHABET[i] for i in ids]) for ids in tag_ids])
    tokens = np.array([[int((ids == s.tag_ids).sum()), len(s)] for ids, s in zip(tag_ids, encoded)])
    regions = np.array([s.region_id for s in encoded])

    def score(rows) -> tuple[float, StrictF1Report]:
        matched, total = tokens[rows].sum(axis=0).tolist()
        return matched / total, StrictF1Report.from_counts(counts[rows].sum(axis=0))

    by_region = {r: score(regions == r) for r in Region if (regions == r).any()}
    accuracy, report = score(slice(None))
    return EvalReport(
        per_region={r: RegionScore(accuracy=a, f1=f.overall) for r, (a, f) in by_region.items()},
        per_label={l.name: p for l, p in report.per_label.items()},
        overall_accuracy=accuracy,
        overall_f1=report.overall,
    )


def evaluate(params: m.TaggerParams, sentences: Sequence[Sentence]) -> EvalReport:
    """Accuracy and strict F1 grouped by region, strict F1 per entity."""
    sentences = list(sentences)
    if not sentences:
        raise DataError("empty evaluation subset")
    encoded = encode_sentences(sentences, params.config)
    return _score(encoded, [s.spans for s in sentences], predict_encoded(params, encoded))


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
    train_sentences: Sequence[Sentence],
    valid_sentences: Sequence[Sentence],
    tagger_config: m.TaggerConfig,
    config: TrainConfig,
) -> TrainResult:
    """Seeded, deterministic training; returns the best-validation-F1
    checkpoint (ties to the earlier epoch) alongside the final one."""
    config.validate()
    tagger_config.validate()
    if not train_sentences:
        raise DataError("empty train split")
    if not valid_sentences:
        raise DataError("empty valid split")
    params = m.init_params(tagger_config)
    encoded = encode_sentences(train_sentences, tagger_config)
    valid_encoded = encode_sentences(valid_sentences, tagger_config)
    valid_spans = [s.spans for s in valid_sentences]
    valid_tokens = sum(len(s) for s in valid_encoded)
    state = AdamState()
    rng = np.random.default_rng(config.seed)
    history: list[dict] = []
    best_f1 = -1.0
    best_epoch = -1
    best_params = params.copy()
    for epoch in range(config.epochs):
        order = rng.permutation(len(encoded))
        epoch_ly = epoch_ld = 0.0
        epoch_tokens = 0
        for lo in range(0, len(order), config.batch_size):
            batch = [encoded[i] for i in order[lo : lo + config.batch_size]]
            try:
                breakdown, grads = compute_losses(params, batch, config.mode, config.lam)
            except HistnerError as exc:
                raise TrainingError(
                    f"epoch {epoch}, batch at {lo}: {exc}"
                ) from exc
            grads = clip_gradients(grads, config.clip_norm)
            adam_step(params, grads, state, config.lr, config.weight_decay)
            n_tok = sum(len(s) for s in batch)
            epoch_ly += breakdown.l_y * n_tok
            epoch_ld += breakdown.l_d * n_tok
            epoch_tokens += n_tok
        try:
            tag_ids, domain_correct = _predict(params, valid_encoded)
            valid_report = _score(valid_encoded, valid_spans, tag_ids)
        except HistnerError as exc:
            raise TrainingError(f"epoch {epoch}, validation: {exc}") from exc
        l_y = epoch_ly / epoch_tokens
        l_d = epoch_ld / epoch_tokens
        if config.mode == "baseline":
            l_total = l_y
        elif config.mode == "grad_rev":
            l_total = l_y + l_d
        else:
            l_total = l_y - config.lam * l_d
        history.append(
            {
                "epoch": epoch,
                "l_y": l_y,
                "l_d": l_d,
                "l_total": l_total,
                "valid_f1": valid_report.overall_f1.f1,
                "valid_acc": valid_report.overall_accuracy,
                "valid_domain_acc": domain_correct / valid_tokens,
            }
        )
        if valid_report.overall_f1.f1 > best_f1:
            best_f1 = valid_report.overall_f1.f1
            best_epoch = epoch
            best_params = params.copy()
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
    sentences: Sequence[Sentence],
    epochs: int = 10,
    lr: float = 1e-3,
    seed: int = 0,
) -> m.TaggerParams:
    """Retrain only the domain head on frozen features.

    Measures how much region information the feature extractor retains;
    extractor and NER head are left untouched. The features are computed
    once; each step trains the head on the rows of its batch's tokens.
    """
    probe = params.copy()
    encoded = encode_sentences(sentences, probe.config)
    if not encoded:
        raise DataError("empty probe training set")
    features = np.concatenate(list(_forward_chunks(probe, encoded, lambda _, g: g.features.value)))
    regions = _region_ids(encoded)
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
    sentences; the diagonal is the intra-regional score. Each model is
    evaluated once, over the whole test split, as soon as it is trained."""
    regions = list(Region)
    train_by = {r: [s for s in iter_sentences(splits.train) if s.region == r] for r in regions}
    valid_by = {r: [s for s in iter_sentences(splits.valid) if s.region == r] for r in regions}
    test_by = {r: [s for s in iter_sentences(splits.test) if s.region == r] for r in regions}
    for r in regions:
        if not train_by[r]:
            raise DataError(f"region {r.display} has no training sentences")
        if not test_by[r]:
            raise DataError(f"region {r.display} has no evaluation sentences")

    test = list(iter_sentences(splits.test))
    matrix = np.zeros((len(regions), len(regions)))
    for i, r in enumerate(regions):
        trained = train(train_by[r], valid_by[r] or test_by[r], tagger_config, config).best_params
        per_region = evaluate(trained, test).per_region
        matrix[i] = [per_region[eval_region].f1.f1 for eval_region in regions]
    return InterRegionalResult(regions=regions, matrix=matrix)


def export_embeddings(
    params: m.TaggerParams, sentences: Sequence[Sentence], path: str | Path
) -> None:
    """One TSV row per sentence: region name, then the mean feature vector
    over its tokens at six decimal places."""
    row = "\t".join(["%.6f"] * params.config.hidden_dim)

    def reduce(group, graph):
        return "".join(f"{Region(enc.region_id).display}\t{row % tuple(h.mean(axis=0).tolist())}\n"
                       for enc, h in zip(group, _per_sentence(graph.features.value, group)))

    chunks = _forward_chunks(params, encode_sentences(sentences, params.config), reduce)
    Path(path).write_text("".join(chunks), encoding="utf-8")
