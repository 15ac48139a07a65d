"""In-memory span recorder for the traced benchmark run.

Wrappers are patched onto every histner module attribute (or class
attribute) that binds a traced function, so calls made through a module
(``training`` calling ``m.forward_windows``) and through a name imported
into another module (``synthetic`` calling ``train``) are both recorded.
Spans stay in memory until the run ends; per-layer statistics are derived
from them afterwards.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Spans recorded at the layer boundaries, as ``module.function``.
SPANS = (
    "cli.main",
    "cli.write_manifest",
    "corpus.load_jsonl",
    "corpus.validate_corpus",
    "corpus.corpus_stats",
    "corpus.split_dataset",
    "analysis.tfidf_top_k",
    "metrics.iaa_report",
    "metrics.cohens_kappa",
    "metrics.strict_f1",
    "synthetic.cross_domain_f1",
    "training.train",
    "training.encode_sentences",
    "training.compute_losses",
    "training.clip_gradients",
    "training.adam_step",
    "training.evaluate",
    "training.predict_encoded",
    "training.domain_accuracy",
    "training.fit_domain_probe",
    "training.export_embeddings",
    "model.forward_windows",
    "model.TaggerParams.save",
    "model.TaggerParams.load",
    "autodiff.backward",
)

#: Spans that run once per training step; they also get latency percentiles.
STEP_SPANS = (
    "training.compute_losses",
    "training.clip_gradients",
    "training.adam_step",
    "model.forward_windows",
    "autodiff.backward",
)

#: Counts recorded at a boundary: (span, count name, unit).
BOUNDARY_COUNTS = (
    ("model.forward_windows", "rows_per_call", "rows"),
    ("training.compute_losses", "tokens_per_call", "tokens"),
    ("training.compute_losses", "embed_rows_touched_ratio", "ratio"),
)

#: Tail percentiles tried from the highest down; the first with at least
#: ten samples beyond it is reported.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _boundary_counts(name: str, args: tuple) -> dict[str, float]:
    if name == "model.forward_windows":
        return {"rows_per_call": float(args[1].shape[0])}
    if name == "training.compute_losses":
        params, batch = args[0], args[1]
        ids = np.concatenate([s.windows.ravel() for s in batch])
        return {
            "tokens_per_call": float(sum(len(s) for s in batch)),
            "embed_rows_touched_ratio":
                np.unique(ids).size / params.extractor["embed"].shape[0],
        }
    return {}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    counts: dict[str, float] = field(default_factory=dict)


class Recorder:
    """Collects spans while ``active``; ``run_id`` tags every span with the
    pass or set-up it belongs to."""

    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self.run_id = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def recording(self, run_id: str):
        self.active, self.run_id = True, run_id
        try:
            yield
        finally:
            self.active = False

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function wherever a histner module binds it."""
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if key == "histner" or key.startswith("histner.")]
        for name in SPANS:
            parts = name.split(".")
            owner = sys.modules["histner." + parts[0]]
            for attr in parts[1:-1]:
                owner = getattr(owner, attr)
            raw = owner.__dict__[parts[-1]]
            if isinstance(raw, classmethod):
                self._patch(owner, parts[-1], classmethod(self._wrap(name, raw.__func__)))
                continue
            wrapper = self._wrap(name, raw)
            self._patch(owner, parts[-1], wrapper)
            if not isinstance(owner, type):
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is raw:
                            self._patch(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            counts = _boundary_counts(name, args)
            parent = recorder._stack[-1] if recorder._stack else None
            index = len(recorder.spans)
            span = Span(name, time.perf_counter(), 0.0, parent, recorder.run_id, counts)
            recorder.spans.append(span)
            recorder._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                recorder._stack.pop()

        return traced

    # -- statistics ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its children cover."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        out = []
        for i, span in enumerate(self.spans):
            covered = 0.0
            cursor = span.start
            for child in sorted(children.get(i, ()), key=lambda c: c.start):
                lo, hi = max(child.start, cursor), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out.append(span.end - span.start - covered)
        return out

    def durations_ms(self, name: str, parent: str | None = None) -> list[float]:
        return [
            1000 * (s.end - s.start) for s in self.spans
            if s.name == name
            and (parent is None
                 or (s.parent is not None and self.spans[s.parent].name == parent))
        ]

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """``{metric name: (value, unit)}`` for every span and count. A span
        with no calls reads 0 calls and 0 for its time stats; the report
        prints it as missing."""
        self_s = self.self_times()
        out: dict[str, tuple[float, str]] = {}
        for name in SPANS:
            idx = [i for i, s in enumerate(self.spans) if s.name == name]
            out[f"{name}.calls"] = (float(len(idx)), "count")
            out[f"{name}.self_s"] = (float(sum(self_s[i] for i in idx)), "s")
        for name in STEP_SPANS:
            p50, tail, pct = tail_stats(self.durations_ms(name))
            out[f"{name}.p50_ms"] = (p50, "ms")
            out[f"{name}.tail_ms"] = (tail, "ms")
            out[f"{name}.tail_pct"] = (pct, "%")
        for name, count, unit in BOUNDARY_COUNTS:
            values = [s.counts[count] for s in self.spans if s.name == name]
            out[f"{name}.{count}"] = (float(np.mean(values)) if values else 0.0, unit)
        return out

    def write(self, path: Path, header: dict) -> None:
        self_s = self.self_times()
        payload = {
            **header,
            "spans": [
                {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "run_id": s.run_id, "self_s": self_s[i], **s.counts}
                for i, s in enumerate(self.spans)
            ],
        }
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


def tail_stats(samples_ms: list[float]) -> tuple[float, float, float]:
    """(p50, tail value, tail percentile): the tail is the highest
    percentile of ``TAIL_LADDER`` with at least ten samples beyond it."""
    if not samples_ms:
        return 0.0, 0.0, 0.0
    arr = np.asarray(samples_ms)
    pct = next((p for p in TAIL_LADDER if len(arr) * (1 - p / 100) >= 10), 50.0)
    return float(np.percentile(arr, 50)), float(np.percentile(arr, pct)), pct
