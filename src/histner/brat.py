"""BRAT standoff input: the ``.txt``/``.ann`` pairs of a file or a
directory, read into a Corpus.

Both files are read as stored, and a line ends at ``\\n`` in each. Offsets
count the ``.txt``'s characters, a ``\\r`` before ``\\n`` included, as the
standoff format defines them. Each non-empty line of the ``.txt`` is one
sentence.
"""

from __future__ import annotations

import bisect
import logging
import re
import unicodedata
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .corpus import (Corpus, Document, EntityLabel, EntitySpan, Region, encode_iob, read_text,
                     sentence_from_texts)
from .errors import AlignmentError, BratParseError, DataError, HistnerError, UnsupportedSpanError

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Token:
    text: str
    start: int
    end: int

    def __post_init__(self):
        if not (0 <= self.start < self.end):
            raise DataError(f"bad token offsets [{self.start}, {self.end})")


@dataclass(frozen=True)
class RawSpan:
    """Character-offset annotation straight out of a standoff file, and its line there."""

    label: EntityLabel
    start: int
    end: int
    surface: str
    line: int


# ---------------------------------------------------------------------------
# Files -> Corpus
# ---------------------------------------------------------------------------

def load(path: str | Path, region: str | None = None) -> tuple[Corpus, list[Path]]:
    """The documents of the pair that the file ``path`` names, or of every
    pair under the directory ``path``, in id order, and the files read.

    A document's id is its file stem; its region is ``region``, else its
    directory's name. An error names its file relative to the directory.
    """
    try:
        given = Region.parse(region) if region else None
    except DataError as exc:
        raise DataError(f"--region: {exc}") from None
    path = Path(path)
    if path.is_dir():
        root, files = path, sorted([*path.rglob("*.txt"), *path.rglob("*.ann")])
    else:
        root = path.parent
        files = [f for f in (path.with_suffix(".ann"), path.with_suffix(".txt")) if f.exists()]
    for file in files:
        other = file.with_suffix(".ann" if file.suffix == ".txt" else ".txt")
        if not other.exists():
            raise DataError(f"{root}: {file.relative_to(root)} has no {other.suffix} file")
    texts = sorted((f for f in files if f.suffix == ".txt"), key=lambda f: (f.stem, f))
    if not texts:
        raise DataError(f"no .txt/.ann pairs for {path}")
    for a, b in zip(texts, texts[1:]):
        if a.stem == b.stem:
            raise DataError(f"{root}: {a.relative_to(root)} and {b.relative_to(root)} "
                            f"give one document id {a.stem!r}")
    docs, inputs = [], []
    for txt in texts:
        ann = txt.with_suffix(".ann")
        inputs.extend([txt, ann])
        text, annotations = read_text(txt), read_text(ann)
        try:
            try:
                doc_region = Region.parse(txt.parent.name) if given is None else given
            except DataError as exc:
                raise DataError(f"{exc}, taken from the name of its directory; "
                                "give one with --region")
            docs.append(document_from_brat(txt.stem, doc_region, text, annotations))
        except HistnerError as exc:
            raise DataError(f"{ann.relative_to(root)}: {exc}") from exc
    return docs, inputs


# ---------------------------------------------------------------------------
# Annotation parsing
# ---------------------------------------------------------------------------

def parse_brat(text_content: str, ann_content: str) -> list[RawSpan]:
    """Parse the T lines of a standoff annotation file.

    A line ends at ``\\n``, less one ``\\r`` before it. Non-entity lines
    (relations, notes, ...) are skipped with a warning. Each surface string
    must match the text slice it points at.
    """
    spans: list[RawSpan] = []
    for line_no, line in enumerate(ann_content.split("\n"), start=1):
        line = line.removesuffix("\r")
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
            # offsets counted with each \r\n as one character slip by one per line
            convention = (r"; offsets count the .txt as stored, each \r\n as two characters"
                          if "\r\n" in text_content else "")
            raise AlignmentError(
                f"line {line_no}: surface {surface!r} does not match text slice {actual!r}"
                + convention
            )
        spans.append(RawSpan(label, start, end, surface, line_no))
    return spans


# ---------------------------------------------------------------------------
# Tokenization and alignment
# ---------------------------------------------------------------------------

#: A letter or digit takes the combining marks after it, so a word in NFD
#: form, as ``Ias\u0326i``, is one token.
_TOKEN = re.compile(r"(?:[^\W_][\u0300-\u036f\u1ab0-\u1aff\u1dc0-\u1dff\u20d0-\u20ff\ufe20-\ufe2f]*)+"
                    r"|\S")


def tokenize(text: str) -> list[Token]:
    """Deterministic rule tokenizer: maximal runs of letters and digits with their combining
    marks, and every other non-space character alone. Offsets index into ``text``."""
    return [Token(m.group(), m.start(), m.end()) for m in _TOKEN.finditer(text)]


def align_spans(tokens: Sequence[Token], raw_spans: Sequence[RawSpan]) -> list[EntitySpan]:
    """Map character spans onto the smallest covering token windows.

    ``tokens`` are in text order and disjoint, as ``tokenize`` makes them.
    A span that cuts into a token is expanded to include the whole token.
    Token windows of different spans must not overlap: the first nested or
    overlapping pair, in window order, is an error naming both spans.
    """
    starts, ends = [t.start for t in tokens], [t.end for t in tokens]
    aligned: list[EntitySpan] = []
    for raw in raw_spans:
        # the first token that ends after the span starts, the last that starts before it ends
        first, last = bisect.bisect_right(ends, raw.start), bisect.bisect_left(starts, raw.end) - 1
        if first > last:
            raise AlignmentError(
                f"span [{raw.start}, {raw.end}) {raw.surface!r} covers no token"
            )
        aligned.append(EntitySpan(raw.label, first, last))
    order = sorted(range(len(aligned)), key=lambda i: (aligned[i].first_token, aligned[i].last_token))
    for i, j in zip(order, order[1:]):
        if aligned[j].first_token <= aligned[i].last_token:
            kind = "nested" if aligned[j].last_token <= aligned[i].last_token else "overlapping"
            a, b = raw_spans[i], raw_spans[j]
            raise AlignmentError(f"aligned spans violate the no-nesting rule: {kind} spans, line "
                                 f"{a.line} {a.label.name} [{a.start}, {a.end}) and line {b.line} "
                                 f"{b.label.name} [{b.start}, {b.end})")
    return aligned


def document_from_brat(doc_id: str, region: Region, text_content: str,
                       ann_content: str) -> Document:
    """Build a Document from a .txt/.ann pair.

    Sentences are the non-empty lines of the text file. A span on a blank
    line covers no token, an alignment error; so is a span crossing a line
    boundary, raised by ``parse_brat``: a surface read from one line of the
    ``.ann`` file cannot match a slice holding a newline. Each token's text
    is written in NFC, so NFC and NFD forms of a pair give one Document.
    """
    tokens = tokenize(text_content)
    tags = encode_iob(align_spans(tokens, parse_brat(text_content, ann_content)), len(tokens))
    # no token holds a "\n", so the tokens of one line are one run
    starts = [i for i, t in enumerate(tokens)
              if i == 0 or "\n" in text_content[tokens[i - 1].end:t.start]]
    sentences = [sentence_from_texts([unicodedata.normalize("NFC", t.text) for t in tokens[a:b]],
                                     tags[a:b], region)
                 for a, b in zip(starts, [*starts[1:], len(tokens)])]
    return Document(id=doc_id, region=region, sentences=sentences)
