"""Corpus model and I/O: BRAT standoff parsing, tokenization, span/token
alignment, IOB2 encoding, validation, splitting, statistics, and the JSONL /
CoNLL serialization formats.

The canonical on-disk form is JSONL with one sentence object per line
(keys: ``doc_id``, ``region``, ``tokens``, ``tags``, optional ``year``).
Tags are the source of truth; entity spans are derived by decoding.
"""

from __future__ import annotations

import enum
import json
import logging
import math
import numbers
import sys
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path
from typing import ClassVar, Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    AlignmentError,
    BratParseError,
    ConfigError,
    DataError,
    TagError,
    UnsupportedSpanError,
)

logger = logging.getLogger(__name__)


class Region(enum.IntEnum):
    """The four historical regions; integer codes feed the domain head."""

    BESSARABIA = 0
    MOLDAVIA = 1
    TRANSYLVANIA = 2
    WALLACHIA = 3

    @property
    def display(self) -> str:
        return self.name.title()

    @classmethod
    def parse(cls, value) -> "Region":
        if isinstance(value, Region):
            return value
        # a JSON true or false is a bool, which Python counts as an int
        if isinstance(value, int) and not isinstance(value, bool):
            try:
                return cls(value)
            except ValueError:
                raise DataError(f"unknown region code {value!r}")
        try:
            return cls[str(value).strip().upper()]
        except KeyError:
            raise DataError(f"unknown region {value!r}")


class EntityLabel(enum.Enum):
    PERSON = "PERSON"
    ORGANISATION = "ORGANISATION"
    LOCATION = "LOCATION"
    PRODUCT = "PRODUCT"
    DATE = "DATE"

    @classmethod
    def parse(cls, value) -> "EntityLabel":
        if isinstance(value, EntityLabel):
            return value
        try:
            return cls[str(value).strip().upper()]
        except KeyError:
            raise DataError(f"unknown entity label {value!r}")


#: Fixed 11-tag IOB2 alphabet; index order is part of the model contract.
TAG_ALPHABET: tuple[str, ...] = ("O",) + tuple(
    f"{prefix}-{label.name}" for label in EntityLabel for prefix in ("B", "I")
)
TAG_TO_ID: dict[str, int] = {tag: i for i, tag in enumerate(TAG_ALPHABET)}

TagSequence = list[str]

YEAR_MIN, YEAR_MAX = 1817, 1990


@dataclass(frozen=True)
class Token:
    text: str
    start: int
    end: int

    def __post_init__(self):
        if not (0 <= self.start < self.end):
            raise DataError(f"bad token offsets [{self.start}, {self.end})")


@dataclass
class EntitySpan:
    """Token-indexed entity mention; ``last_token`` is inclusive."""

    label: EntityLabel
    first_token: int
    last_token: int

    def __post_init__(self):
        if self.first_token > self.last_token or self.first_token < 0:
            raise DataError(
                f"bad span token range [{self.first_token}, {self.last_token}]"
            )

    @property
    def key(self) -> tuple:
        return (self.label, self.first_token, self.last_token)

    @property
    def n_tokens(self) -> int:
        return self.last_token - self.first_token + 1


@dataclass(frozen=True)
class RawSpan:
    """Character-offset annotation straight out of a standoff file."""

    label: EntityLabel
    start: int
    end: int
    surface: str


@dataclass
class Sentence:
    tokens: list[str]
    tags: TagSequence
    region: Region

    @cached_property
    def spans(self) -> list[EntitySpan]:
        return decode_iob(self.tags)

    @property
    def token_texts(self) -> list[str]:
        return self.tokens

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass
class Document:
    id: str
    region: Region
    sentences: list[Sentence]
    year: int | None = None

    def __post_init__(self):
        if self.year is not None and not (YEAR_MIN <= self.year <= YEAR_MAX):
            raise DataError(
                f"document {self.id!r}: year {self.year} outside [{YEAR_MIN}, {YEAR_MAX}]"
            )


Corpus = list[Document]


def iter_sentences(corpus: Corpus) -> Iterable[Sentence]:
    for doc in corpus:
        yield from doc.sentences


# ---------------------------------------------------------------------------
# BRAT standoff parsing
# ---------------------------------------------------------------------------

def parse_brat(text_content: str, ann_content: str) -> list[RawSpan]:
    """Parse the T lines of a standoff annotation file.

    Non-entity lines (relations, notes, ...) are skipped with a warning.
    Each surface string must match the text slice it points at.
    """
    spans: list[RawSpan] = []
    for line_no, line in enumerate(ann_content.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if not parts[0]:
            raise BratParseError(line_no, "empty annotation id")
        if not parts[0].startswith("T"):
            logger.warning("ignoring non-entity annotation line %d (%s)", line_no, parts[0])
            continue
        if len(parts) != 3:
            raise BratParseError(
                line_no, f"expected 'ID<TAB>LABEL START END<TAB>SURFACE', got {len(parts)} fields"
            )
        if ";" in parts[1]:
            raise UnsupportedSpanError(
                f"line {line_no}: discontinuous spans are not supported"
            )
        fields = parts[1].split(" ")
        if len(fields) != 3:
            raise BratParseError(line_no, f"malformed span descriptor {parts[1]!r}")
        try:
            label = EntityLabel.parse(fields[0])
        except DataError as exc:
            raise BratParseError(line_no, str(exc))
        try:
            start, end = int(fields[1]), int(fields[2])
        except ValueError:
            raise BratParseError(line_no, f"non-integer offsets in {parts[1]!r}")
        if not (0 <= start < end <= len(text_content)):
            raise AlignmentError(
                f"line {line_no}: span [{start}, {end}) outside text of length {len(text_content)}"
            )
        surface = parts[2]
        actual = text_content[start:end]
        if surface != actual:
            raise AlignmentError(
                f"line {line_no}: surface {surface!r} does not match text slice {actual!r}"
            )
        spans.append(RawSpan(label, start, end, surface))
    return spans


# ---------------------------------------------------------------------------
# Tokenization and alignment
# ---------------------------------------------------------------------------

def tokenize(text: str) -> list[Token]:
    """Deterministic rule tokenizer: maximal alphanumeric runs, every other
    non-space character is its own token. Offsets index into ``text``."""
    tokens: list[Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isalnum():
            j = i + 1
            while j < n and text[j].isalnum():
                j += 1
            tokens.append(Token(text[i:j], i, j))
            i = j
        else:
            tokens.append(Token(ch, i, i + 1))
            i += 1
    return tokens


def span_conflicts(spans: Sequence[EntitySpan]) -> list[str]:
    """Describe every overlapping or nested pair of token-indexed spans."""
    ordered = sorted(spans, key=lambda s: (s.first_token, s.last_token))
    conflicts = []
    for prev, cur in zip(ordered, ordered[1:]):
        if cur.first_token <= prev.last_token:
            kind = "nested" if cur.last_token <= prev.last_token else "overlapping"
            conflicts.append(f"{kind} spans {prev.key} / {cur.key}")
    return conflicts


def align_spans(tokens: Sequence[Token], raw_spans: Sequence[RawSpan]) -> list[EntitySpan]:
    """Map character spans onto the smallest covering token windows.

    A span that cuts into a token is expanded to include the whole token.
    Token windows of different spans must not overlap.
    """
    aligned: list[EntitySpan] = []
    for raw in raw_spans:
        covering = [
            i for i, tok in enumerate(tokens)
            if tok.start < raw.end and tok.end > raw.start
        ]
        if not covering:
            raise AlignmentError(
                f"span [{raw.start}, {raw.end}) {raw.surface!r} covers no token"
            )
        aligned.append(EntitySpan(raw.label, covering[0], covering[-1]))
    conflicts = span_conflicts(aligned)
    if conflicts:
        raise AlignmentError(f"aligned spans violate the no-nesting rule: {conflicts[0]}")
    return aligned


# ---------------------------------------------------------------------------
# IOB2 encode / decode
# ---------------------------------------------------------------------------

def encode_iob(spans: Sequence[EntitySpan], n_tokens: int) -> TagSequence:
    """IOB2 encoding: B on the first token of every span, I on the rest."""
    tags = ["O"] * n_tokens
    for span in sorted(spans, key=lambda s: s.first_token):
        if span.last_token >= n_tokens:
            raise TagError(f"span {span.key} exceeds sentence length {n_tokens}")
        for i in range(span.first_token, span.last_token + 1):
            if tags[i] != "O":
                raise TagError(f"overlapping spans at token {i}")
            tags[i] = ("B-" if i == span.first_token else "I-") + span.label.name
    return tags


def decode_iob(tags: Sequence[str]) -> list[EntitySpan]:
    """Decode any tag sequence over the 11-tag alphabet into spans.

    A stray I-X (one with no open B-X/I-X run of the same label) starts a
    new span, i.e. it is repaired as if it were B-X.
    """
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


def is_valid_iob(tags: Sequence[str]) -> bool:
    prev = "O"
    for tag in tags:
        if tag not in TAG_TO_ID:
            return False
        if tag.startswith("I-") and prev != "B-" + tag[2:] and prev != tag:
            return False
        prev = tag
    return True


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    doc_id: str
    sentence: int
    message: str

    def __str__(self) -> str:
        return f"{self.doc_id}[{self.sentence}]: {self.message}"


def validate_document(doc: Document) -> list[Violation]:
    """Report structural problems; violations are data, not exceptions."""
    violations: list[Violation] = []

    def flag(idx: int, msg: str):
        violations.append(Violation(doc.id, idx, msg))

    for idx, sent in enumerate(doc.sentences):
        if not sent.tokens:
            flag(idx, "sentence has no tokens")
        if len(sent.tags) != len(sent.tokens):
            flag(idx, f"{len(sent.tags)} tags for {len(sent.tokens)} tokens")
        for tag in sent.tags:
            if tag not in TAG_TO_ID:
                flag(idx, f"unknown tag {tag!r}")
                break
    return violations


def validate_corpus(corpus: Corpus) -> list[Violation]:
    violations: list[Violation] = []
    seen: dict[str, int] = {}
    for doc in corpus:
        if doc.id in seen:
            violations.append(Violation(doc.id, -1, "duplicate document id"))
        seen[doc.id] = 1
        violations.extend(validate_document(doc))
    return violations


# ---------------------------------------------------------------------------
# BRAT pair -> Document
# ---------------------------------------------------------------------------

def document_from_brat(doc_id: str, region: Region, text_content: str,
                       ann_content: str) -> Document:
    """Build a Document from a .txt/.ann pair.

    Sentences are the non-empty lines of the text file; a span crossing a
    line boundary is an alignment error.
    """
    raw_spans = parse_brat(text_content, ann_content)
    sentences: list[Sentence] = []
    offset = 0
    for line in text_content.split("\n"):
        line_start, line_end = offset, offset + len(line)
        offset = line_end + 1
        if not line.strip():
            continue
        local = [
            s for s in raw_spans
            if s.start < line_end and s.end > line_start
        ]
        for s in local:
            if s.start < line_start or s.end > line_end:
                raise AlignmentError(
                    f"span [{s.start}, {s.end}) crosses a line boundary"
                )
        tokens = [
            Token(t.text, t.start + line_start, t.end + line_start)
            for t in tokenize(line)
        ]
        spans = align_spans(tokens, local)
        tags = encode_iob(spans, len(tokens))
        sentences.append(Sentence(tokens=[t.text for t in tokens], tags=tags, region=region))
    return Document(id=doc_id, region=region, sentences=sentences)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

_FIELD_KINDS = {"int": numbers.Integral, "float": numbers.Real, "str": str}


def check_config(config) -> None:
    """Raise ``ConfigError`` naming the first field of a config dataclass
    that breaks its rule: its declared type (a bool is neither an int nor a
    float), a value within float range for a float, and its lower bound in
    the class's ``BOUNDS`` table ``{field: (bound, strict)}``."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, bool) or not isinstance(value, _FIELD_KINDS[f.type]):
            raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
        # NaN fails every comparison; an int beyond float range cannot be a float
        if f.type == "float" and not abs(value) <= sys.float_info.max:
            raise ConfigError(f"{f.name} must be a finite float, got {value!r}")
        if f.name in config.BOUNDS:
            bound, strict = config.BOUNDS[f.name]
            if value < bound or (strict and value == bound):
                raise ConfigError(f"{f.name} must be {'>' if strict else '>='} {bound}, "
                                  f"got {value!r}")


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------

#: The train, valid and test shares of each region's sentences.
SPLIT_RATIOS = (0.8, 0.1, 0.1)


@dataclass
class SplitSpec:
    seed: int = 0

    BOUNDS: ClassVar[dict] = {"seed": (0, False)}


@dataclass
class Splits:
    train: Corpus
    valid: Corpus
    test: Corpus

    def parts(self) -> dict[str, Corpus]:
        return {"train": self.train, "valid": self.valid, "test": self.test}


def _allocate(n: int) -> list[int]:
    # largest-remainder rounding so every part is within one of its target
    targets = [n * r for r in SPLIT_RATIOS]
    counts = [math.floor(t) for t in targets]
    remainder = n - sum(counts)
    order = sorted(range(len(targets)), key=lambda i: (-(targets[i] - counts[i]), i))
    for i in order[:remainder]:
        counts[i] += 1
    return counts


def _rebuild(corpus: Corpus, part_of: dict[tuple[int, int], str]) -> Splits:
    """Each ``(doc_idx, sent_idx)``'s sentence in its part, in document order."""
    parts: dict[str, Corpus] = {"train": [], "valid": [], "test": []}
    for part, docs in parts.items():
        for d_idx, doc in enumerate(corpus):
            sents = [s for s_idx, s in enumerate(doc.sentences) if part_of[(d_idx, s_idx)] == part]
            if sents:
                docs.append(Document(id=doc.id, region=doc.region, sentences=sents, year=doc.year))
    return Splits(**parts)


def split_dataset(corpus: Corpus, spec: SplitSpec) -> Splits:
    """Sentence-level split of each region by ``SPLIT_RATIOS``, deterministic
    per seed."""
    check_config(spec)
    by_region: dict[Region, list[tuple[int, int]]] = {}
    for d_idx, doc in enumerate(corpus):
        for s_idx, sent in enumerate(doc.sentences):
            by_region.setdefault(sent.region, []).append((d_idx, s_idx))
    rng = np.random.default_rng(spec.seed)
    part_of: dict[tuple[int, int], str] = {}
    for region in sorted(by_region):
        keys = by_region[region]
        perm = rng.permutation(len(keys))
        n_train, n_valid, n_test = _allocate(len(keys))
        ranked = ["train"] * n_train + ["valid"] * n_valid + ["test"] * n_test
        for part, key_idx in zip(ranked, perm):
            part_of[keys[key_idx]] = part
    return _rebuild(corpus, part_of)


def apply_split_file(corpus: Corpus, mapping: dict) -> Splits:
    """Split according to an explicit assignment instead of ``SPLIT_RATIOS``.

    ``mapping`` has keys train/valid/test; entries are document ids
    (whole document) or ``doc_id#i`` (single sentence). Every sentence
    must be assigned exactly once.
    """
    for part in ("train", "valid", "test"):
        if not isinstance(mapping.get(part), list):
            raise DataError(f"split file needs a {part!r} list")
    index: dict[str, tuple[int, int]] = {}
    doc_ids: dict[str, list[tuple[int, int]]] = {}
    for d_idx, doc in enumerate(corpus):
        doc_ids[doc.id] = []
        for s_idx in range(len(doc.sentences)):
            index[f"{doc.id}#{s_idx}"] = (d_idx, s_idx)
            doc_ids[doc.id].append((d_idx, s_idx))
    taken: dict[tuple[int, int], str] = {}
    for part in ("train", "valid", "test"):
        for entry in mapping[part]:
            entry = str(entry)
            if entry in index:
                keys = [index[entry]]
            elif entry in doc_ids:
                keys = doc_ids[entry]
            else:
                raise DataError(f"split entry {entry!r} matches no document or sentence")
            for key in keys:
                if key in taken:
                    raise DataError(f"split assigns {entry!r} to both {taken[key]} and {part}")
                taken[key] = part
    missing = len(index) - len(taken)
    if missing:
        raise DataError(f"split file leaves {missing} sentences unassigned")
    return _rebuild(corpus, taken)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

@dataclass
class StatsCell:
    entity_tokens: int = 0
    entities: int = 0

    @property
    def tokens_per_entity(self) -> float:
        return self.entity_tokens / self.entities if self.entities else 0.0

    @classmethod
    def summed(cls, cells: Iterable["StatsCell"]) -> "StatsCell":
        out = cls()
        for cell in cells:
            out.entity_tokens += cell.entity_tokens
            out.entities += cell.entities
        return out

    def to_json_dict(self) -> dict:
        return {"entity_tokens": self.entity_tokens, "entities": self.entities,
                "tokens_per_entity": round(self.tokens_per_entity, 4)}


@dataclass
class CorpusStats:
    n_documents: int
    n_sentences: int
    n_tokens: int
    cells: dict[tuple[EntityLabel, Region], StatsCell]

    def label_total(self, label: EntityLabel) -> StatsCell:
        return StatsCell.summed(self.cells.get((label, r), StatsCell()) for r in Region)

    @property
    def total(self) -> StatsCell:
        return StatsCell.summed(self.cells.values())

    def _rows(self) -> Iterator[tuple[str, str, StatsCell]]:
        """``(label, region, cell)`` for every region of every label, each
        label followed by its ``Total`` row."""
        for label in EntityLabel:
            for region in Region:
                yield label.name, region.display, self.cells.get((label, region), StatsCell())
            yield label.name, "Total", self.label_total(label)

    def to_json_dict(self) -> dict:
        per_label: dict[str, dict] = {}
        for label, region, cell in self._rows():
            per_label.setdefault(label, {})[region] = cell.to_json_dict()
        return {"documents": self.n_documents, "sentences": self.n_sentences,
                "tokens": self.n_tokens, **self.total.to_json_dict(), "per_label": per_label}

    def render_text(self) -> str:
        rows = [[label, region, str(cell.entity_tokens), str(cell.entities),
                 f"{cell.tokens_per_entity:.2f}"]
                for label, region, cell in [*self._rows(), ("Total", "-", self.total)]]
        return (f"documents: {self.n_documents}  sentences: {self.n_sentences}  "
                f"tokens: {self.n_tokens}\n"
                + format_table(["Entity", "Region", "Tokens", "Entities", "Tokens/Entity"], rows))


def format_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    cols = [[str(h)] + [str(r[i]) for r in rows] for i, h in enumerate(headers)]
    widths = [max(len(v) for v in col) for col in cols]
    def fmt(values):
        return "  ".join(str(v).ljust(w) for v, w in zip(values, widths)).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def corpus_stats(corpus: Corpus) -> CorpusStats:
    """Per (entity label, region) counts plus corpus totals."""
    cells: dict[tuple[EntityLabel, Region], StatsCell] = {}
    n_sentences = 0
    n_tokens = 0
    for doc in corpus:
        for sent in doc.sentences:
            n_sentences += 1
            n_tokens += len(sent.tokens)
            for span in sent.spans:
                cell = cells.setdefault((span.label, sent.region), StatsCell())
                cell.entities += 1
                cell.entity_tokens += span.n_tokens
    return CorpusStats(
        n_documents=len(corpus),
        n_sentences=n_sentences,
        n_tokens=n_tokens,
        cells=cells,
    )


# ---------------------------------------------------------------------------
# JSONL / CoNLL serialization
# ---------------------------------------------------------------------------

def sentence_from_texts(texts: Sequence[str], tags: Sequence[str], region: Region) -> Sentence:
    """A sentence from token strings; an empty string is an error."""
    if not all(texts):
        raise DataError("empty token text")
    return Sentence(tokens=list(texts), tags=list(tags), region=region)


def sentence_to_json_dict(doc_id: str, sent: Sentence, year: int | None) -> dict:
    obj = {
        "doc_id": doc_id,
        "region": sent.region.display,
        "tokens": list(sent.tokens),
        "tags": list(sent.tags),
    }
    if year is not None:
        obj["year"] = year
    return obj


def dumps_jsonl(corpus: Corpus) -> str:
    lines = []
    for doc in corpus:
        for sent in doc.sentences:
            lines.append(json.dumps(sentence_to_json_dict(doc.id, sent, doc.year),
                                    ensure_ascii=False))
    return "\n".join(lines) + ("\n" if lines else "")


def save_jsonl(corpus: Corpus, path: str | Path) -> None:
    Path(path).write_text(dumps_jsonl(corpus), encoding="utf-8")


def _record_fields(obj) -> tuple[str, int | None, Sentence]:
    """Check one JSONL record; returns its document id, year and sentence."""
    if not isinstance(obj, dict):
        raise DataError(f"expected a JSON object, got {type(obj).__name__}")
    for key in ("doc_id", "region", "tokens", "tags"):
        if key not in obj:
            raise DataError(f"missing key {key!r}")
    for key in ("tokens", "tags"):
        if not isinstance(obj[key], list) or not all(isinstance(t, str) for t in obj[key]):
            raise DataError(f"{key!r} must be a list of strings")
    year = obj.get("year")
    if year is not None and (type(year) is not int or not YEAR_MIN <= year <= YEAR_MAX):
        raise DataError(f"year must be an integer in [{YEAR_MIN}, {YEAR_MAX}], got {year!r}")
    sentence = sentence_from_texts(obj["tokens"], obj["tags"], Region.parse(obj["region"]))
    return str(obj["doc_id"]), year, sentence


def _json_lines(content: str) -> Iterator[tuple[int, object]]:
    """Each non-blank line's number and parsed JSON value."""
    for line_no, line in enumerate(content.splitlines(), start=1):
        if line.strip():
            try:
                yield line_no, json.loads(line)
            except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
                raise DataError(f"line {line_no}: invalid JSON ({getattr(exc, 'msg', exc)})") from None


def _corpus_from_records(records: Iterable[tuple[int, object]]) -> Corpus:
    """Documents from ``(line number, record)`` pairs in order; a record's
    error carries its line number."""
    docs: dict[str, Document] = {}
    for line_no, obj in records:
        try:
            doc_id, year, sent = _record_fields(obj)
        except DataError as exc:
            raise DataError(f"line {line_no}: {exc}") from exc
        if doc_id not in docs:
            docs[doc_id] = Document(id=doc_id, region=sent.region, sentences=[], year=year)
        docs[doc_id].sentences.append(sent)
    return list(docs.values())


def loads_jsonl(content: str) -> Corpus:
    return _corpus_from_records(_json_lines(content))


def read_text(path: str | Path) -> str:
    """A UTF-8 file's text; other bytes are a ``DataError`` naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def load_jsonl(path: str | Path) -> Corpus:
    """A JSONL corpus file; a malformed record's error names the file."""
    content = read_text(path)
    try:
        return loads_jsonl(content)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def dumps_conll(corpus: Corpus) -> str:
    out = []
    for doc in corpus:
        for sent in doc.sentences:
            for token, tag in zip(sent.tokens, sent.tags):
                out.append(f"{token}\t{tag}\n")
            out.append("\n")
    return "".join(out)


def export_conll(corpus: Corpus, path: str | Path) -> None:
    Path(path).write_text(dumps_conll(corpus), encoding="utf-8")


# ---------------------------------------------------------------------------
# Public-release ingestion adapter
# ---------------------------------------------------------------------------

_RELEASE_FILES = {
    "train": ("train.json", "train.jsonl"),
    "valid": ("valid.json", "valid.jsonl", "validation.json"),
    "test": ("test.json", "test.jsonl"),
}


def _release_record(obj, line_no: int, fallback_id: str):
    """A release record in the JSONL record schema; ``_record_fields``
    checks the rest."""
    if not isinstance(obj, dict):
        raise DataError(f"line {line_no}: expected a JSON object, got {type(obj).__name__}")
    tokens = obj.get("tokens")
    if tokens is None:
        raise DataError(f"line {line_no}: no 'tokens' field")
    tags = obj.get("ner_tags", obj.get("tags"))
    if tags is None:
        raise DataError(f"line {line_no}: no 'ner_tags'/'tags' field")
    if isinstance(tags, list) and tags and all(type(t) is int for t in tags):
        if not all(0 <= t < len(TAG_ALPHABET) for t in tags):
            raise DataError(f"line {line_no}: tag index outside the 11-tag alphabet")
        tags = [TAG_ALPHABET[i] for i in tags]
    region = obj.get("region", obj.get("region_id"))
    if region is None:
        raise DataError(f"line {line_no}: no 'region' field")
    doc_id = obj.get("doc_id", obj.get("document", obj.get("id", fallback_id)))
    return {"doc_id": doc_id, "region": region, "tokens": tokens, "tags": tags,
            "year": obj.get("year")}


def load_histnero(directory: str | Path) -> Splits:
    """Read the public HistNERo release from disk and map it onto the
    canonical schema, keeping its published train/valid/test assignment.

    Accepts JSON-lines files or a single JSON array per part. Integer
    ner_tags are interpreted in the fixed 11-tag alphabet order.
    """
    directory = Path(directory)
    parts: dict[str, Corpus] = {}
    for part, candidates in _RELEASE_FILES.items():
        path = None
        for name in candidates:
            if (directory / name).exists():
                path = directory / name
                break
        if path is None:
            raise DataError(f"no {part} file found in {directory}")
        text = read_text(path)
        if text.lstrip().startswith("["):
            try:
                rows = enumerate(json.loads(text), start=1)
            except ValueError as exc:
                raise DataError(f"{path}: invalid JSON ({exc})") from None
        else:
            rows = _json_lines(text)
        try:
            parts[part] = _corpus_from_records(
                (n, _release_record(obj, n, f"{part}-{n - 1:05d}")) for n, obj in rows)
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from exc
    return Splits(train=parts["train"], valid=parts["valid"], test=parts["test"])
