import contextlib
import io
import json
import logging
import tempfile
import unicodedata
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from histner import cli
from histner import corpus as C
from histner import synthetic
from histner.brat import RawSpan, align_spans, document_from_brat, parse_brat, tokenize
from histner.corpus import (
    EntityLabel,
    EntitySpan,
    Region,
    SplitSpec,
    TAG_ALPHABET,
    apply_split_file,
    corpus_stats,
    decode_iob,
    dumps_conll,
    dumps_jsonl,
    encode_iob,
    loads_jsonl,
    split_dataset,
    validate_corpus,
    validate_document,
)
from histner.errors import (
    AlignmentError,
    BratParseError,
    ConfigError,
    DataError,
    TagError,
    UnsupportedSpanError,
)

import reference_ops as ref
from conftest import make_doc, make_sentence
from reference_ops import is_valid_iob


# ---------------------------------------------------------------------------
# BRAT parsing
# ---------------------------------------------------------------------------

class TestParseBrat:
    def test_single_span(self):
        spans = parse_brat("Mihai merge.", "T1\tPERSON 0 5\tMihai")
        assert spans == [RawSpan(EntityLabel.PERSON, 0, 5, "Mihai", 1)]

    def test_empty_annotation_file(self):
        assert parse_brat("abc", "") == []

    def test_surface_mismatch(self):
        with pytest.raises(AlignmentError):
            parse_brat("abc", "T1\tPERSON 0 2\txy")

    def test_discontinuous_span_rejected(self):
        with pytest.raises(UnsupportedSpanError):
            parse_brat("abc def ghi", "T1\tPERSON 0 3;8 11\tabc ghi")

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(BratParseError) as err:
            parse_brat("abc", "T1\tPERSON 0 1\ta\nT2\tbroken")
        assert err.value.line_no == 2

    def test_non_entity_lines_skipped(self, caplog):
        with caplog.at_level(logging.WARNING, logger="histner.brat"):
            spans = parse_brat("abc", "A1\tNote T1 whatever\nT1\tDATE 0 3\tabc")
        assert len(spans) == 1
        assert "ignoring" in caplog.text

    def test_unknown_label(self):
        with pytest.raises(BratParseError):
            parse_brat("abc", "T1\tANIMAL 0 3\tabc")

    def test_span_outside_text(self):
        with pytest.raises(AlignmentError):
            parse_brat("abc", "T1\tDATE 1 9\tbc")


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

class TestTokenize:
    def test_basic(self):
        toks = tokenize("Anul 1848.")
        assert [(t.text, t.start, t.end) for t in toks] == [
            ("Anul", 0, 4), ("1848", 5, 9), (".", 9, 10)
        ]

    def test_empty(self):
        assert tokenize("") == []

    def test_punctuation_isolated(self):
        assert [t.text for t in tokenize("a-b")] == ["a", "-", "b"]

    def test_offsets_slice_source(self):
        text = "Ce  mai faci?!  bine"
        for tok in tokenize(text):
            assert text[tok.start : tok.end] == tok.text

    @given(st.text(max_size=80))
    @settings(max_examples=200)
    def test_non_whitespace_content_reconstructed(self, text):
        tokens = tokenize(text)
        joined = "".join(t.text for t in tokens)
        assert joined == "".join(ch for ch in text if not ch.isspace())

    @given(st.text(max_size=80))
    def test_tokens_sorted_non_overlapping(self, text):
        tokens = tokenize(text)
        for a, b in zip(tokens, tokens[1:]):
            assert a.end <= b.start

    @given(st.text())
    @settings(max_examples=300)
    def test_matches_its_definition(self, text):
        tokens = [(t.text, t.start, t.end) for t in tokenize(text)]
        assert tokens == _defined_tokens(text)

    @pytest.mark.parametrize("text, expected", [
        ("a_b", [("a", 0, 1), ("_", 1, 2), ("b", 2, 3)]),
        ("x\u00b2\u0663", [("x\u00b2\u0663", 0, 3)]),
        # a combining mark joins the letter or digit before it, else stands alone
        ("s\u0326a", [("s\u0326a", 0, 3)]),
        ("a\tb\r\nc\u00a0d", [("a", 0, 1), ("b", 2, 3), ("c", 5, 6), ("d", 7, 8)]),
        ("-\u0326 \u0301a_\u0300", [("-", 0, 1), ("\u0326", 1, 2), ("\u0301", 3, 4),
                                      ("a", 4, 5), ("_", 5, 6), ("\u0300", 6, 7)]),
    ], ids=["underscore", "superscript and Arabic-Indic digits", "combining mark",
            "tab, CRLF and no-break space", "combining mark after no letter"])
    def test_character_classes(self, text, expected):
        assert [(t.text, t.start, t.end) for t in tokenize(text)] == expected


#: The combining-mark blocks whose marks join the letter or digit before them.
_COMBINING = [(0x0300, 0x036F), (0x1AB0, 0x1AFF), (0x1DC0, 0x1DFF), (0x20D0, 0x20FF),
              (0xFE20, 0xFE2F)]


def _defined_tokens(text):
    """The tokenizer's docstring as code: maximal runs of ``str.isalnum``
    characters, each with the combining marks after it, and every other
    character that is not ``str.isspace`` on its own, each with the offsets
    that slice it out of ``text``."""
    def is_mark(ch):
        return any(lo <= ord(ch) <= hi for lo, hi in _COMBINING)
    tokens, start = [], None  # start: where the open run of letters and digits began
    for i, ch in enumerate(text + " "):
        if start is not None and (ch.isalnum() or is_mark(ch)):
            continue
        if start is not None:
            tokens.append((text[start:i], start, i))
        start = i if ch.isalnum() else None
        if start is None and not ch.isspace():
            tokens.append((ch, i, i + 1))
    return tokens


# ---------------------------------------------------------------------------
# Alignment
# ---------------------------------------------------------------------------

def _brute_force_window(tokens, raw):
    overlapping = [
        i for i, t in enumerate(tokens) if t.start < raw.end and t.end > raw.start
    ]
    return (min(overlapping), max(overlapping)) if overlapping else None


class TestAlignSpans:
    def test_exact_boundaries(self):
        tokens = tokenize("Ion Popescu vine")
        spans = align_spans(tokens, [RawSpan(EntityLabel.PERSON, 0, 11, "Ion Popescu", 1)])
        assert (spans[0].first_token, spans[0].last_token) == (0, 1)

    def test_expansion_inside_token(self):
        tokens = tokenize("Ion Popescu vine")
        spans = align_spans(tokens, [RawSpan(EntityLabel.PERSON, 4, 7, "Pop", 1)])
        assert (spans[0].first_token, spans[0].last_token) == (1, 1)

    def test_expansion_matches_brute_force(self):
        rng = np.random.default_rng(7)
        text = "unu doi trei patru cinci sase sapte opt"
        tokens = tokenize(text)
        for _ in range(300):
            a, b = sorted(rng.integers(0, len(text), size=2))
            if a == b or text[a:b].strip() == "":
                continue
            raw = RawSpan(EntityLabel.DATE, int(a), int(b), text[a:b], 1)
            expected = _brute_force_window(tokens, raw)
            if expected is None:
                with pytest.raises(AlignmentError):
                    align_spans(tokens, [raw])
            else:
                got = align_spans(tokens, [raw])[0]
                assert (got.first_token, got.last_token) == expected

    def test_overlapping_windows_rejected(self):
        tokens = tokenize("Ion Popescu vine")
        raws = [
            RawSpan(EntityLabel.PERSON, 0, 11, "Ion Popescu", 1),
            RawSpan(EntityLabel.LOCATION, 4, 15, "Popescu vin", 2),
        ]
        with pytest.raises(AlignmentError):
            align_spans(tokens, raws)

    def test_span_in_whitespace_only(self):
        tokens = tokenize("a  b")
        with pytest.raises(AlignmentError):
            align_spans(tokens, [RawSpan(EntityLabel.DATE, 1, 2, " ", 1)])


class TestSpanConflicts:
    # align_spans rejects the first nested or overlapping pair of token
    # windows, naming both spans by their .ann line, label and offsets
    TOKENS = tokenize("a b c d e")

    def test_nested_pair_is_one_violation(self):
        raws = [RawSpan(EntityLabel.PERSON, 0, 7, "a b c d", 1),
                RawSpan(EntityLabel.DATE, 2, 5, "b c", 2)]
        with pytest.raises(AlignmentError, match=r"violate the no-nesting rule: nested spans, "
                           r"line 1 PERSON \[0, 7\) and line 2 DATE \[2, 5\)$"):
            align_spans(self.TOKENS, raws)

    def test_overlap_reported(self):
        raws = [RawSpan(EntityLabel.PERSON, 4, 9, "c d e", 3),
                RawSpan(EntityLabel.DATE, 0, 5, "a b c", 5)]
        with pytest.raises(AlignmentError, match=r"overlapping spans, "
                           r"line 5 DATE \[0, 5\) and line 3 PERSON \[4, 9\)$"):
            align_spans(self.TOKENS, raws)

    def test_disjoint_clean(self):
        raws = [RawSpan(EntityLabel.PERSON, 0, 3, "a b", 1),
                RawSpan(EntityLabel.DATE, 4, 5, "c", 2)]
        assert [s.key for s in align_spans(self.TOKENS, raws)] == [
            (EntityLabel.PERSON, 0, 1), (EntityLabel.DATE, 2, 2)]


# ---------------------------------------------------------------------------
# IOB2 encode / decode
# ---------------------------------------------------------------------------

def span_keys(spans):
    return [(s.label, s.first_token, s.last_token) for s in spans]


class TestIob:
    def test_encode_empty(self):
        assert encode_iob([], 3) == ["O", "O", "O"]

    def test_encode_basic(self):
        spans = [EntitySpan(EntityLabel.PERSON, 0, 1)]
        assert encode_iob(spans, 3) == ["B-PERSON", "I-PERSON", "O"]

    def test_adjacent_spans_get_separate_b(self):
        spans = [EntitySpan(EntityLabel.LOCATION, 0, 0), EntitySpan(EntityLabel.LOCATION, 1, 1)]
        assert encode_iob(spans, 2) == ["B-LOCATION", "B-LOCATION"]

    def test_encode_overlap_rejected(self):
        spans = [EntitySpan(EntityLabel.PERSON, 0, 2), EntitySpan(EntityLabel.DATE, 2, 3)]
        with pytest.raises(TagError):
            encode_iob(spans, 5)

    def test_encode_out_of_range(self):
        with pytest.raises(TagError):
            encode_iob([EntitySpan(EntityLabel.DATE, 1, 4)], 3)

    def test_decode_empty(self):
        assert decode_iob(["O", "O", "O"]) == []

    def test_decode_basic(self):
        spans = decode_iob(["B-DATE", "I-DATE", "O", "B-PERSON"])
        assert span_keys(spans) == [
            (EntityLabel.DATE, 0, 1), (EntityLabel.PERSON, 3, 3)
        ]

    def test_decode_repairs_stray_i(self):
        # the stated repair: a stray I-X opens a new span as if it were B-X
        spans = decode_iob(["I-DATE", "I-PERSON"])
        assert span_keys(spans) == [
            (EntityLabel.DATE, 0, 0), (EntityLabel.PERSON, 1, 1)
        ]

    def test_decode_unknown_tag(self):
        with pytest.raises(TagError, match="unknown tag 'B-THING' at position 1"):
            decode_iob(["O", "B-THING"])

    def test_alphabet_has_eleven_tags(self):
        assert len(TAG_ALPHABET) == 11
        assert TAG_ALPHABET[0] == "O"


# strategy: non-overlapping span sets over short sentences
@st.composite
def span_sets(draw):
    n_tokens = draw(st.integers(min_value=1, max_value=12))
    spans = []
    pos = 0
    while pos < n_tokens:
        if draw(st.booleans()):
            end = draw(st.integers(min_value=pos, max_value=min(n_tokens - 1, pos + 3)))
            label = draw(st.sampled_from(list(EntityLabel)))
            spans.append(EntitySpan(label, pos, end))
            pos = end + 1
        else:
            pos += 1
    return spans, n_tokens


tag_sequences = st.lists(st.sampled_from(TAG_ALPHABET), min_size=0, max_size=12)


@st.composite
def tag_id_sentences(draw):
    """Up to eight sentences of up to six tag ids, some of them empty."""
    lengths = draw(st.lists(st.integers(0, 6), max_size=8))
    ids = draw(st.lists(st.integers(0, len(TAG_ALPHABET) - 1), min_size=sum(lengths),
                        max_size=sum(lengths)))
    return np.array(ids, dtype=np.int64), lengths


def _ids(*tags):
    return np.array([TAG_ALPHABET.index(t) for t in tags], dtype=np.int64)


class TestIobProperties:
    @given(tag_id_sentences())
    @example((_ids("B-PERSON", "I-PERSON", "I-PERSON"), [1, 0, 2]))  # a run cut by sentences
    @example((_ids("I-DATE", "B-DATE", "B-DATE", "I-DATE"), [4]))  # stray I-, adjacent B-
    @example((_ids("B-PERSON", "I-DATE", "I-PERSON", "O", "I-LOCATION"), [0, 5, 0]))  # switches
    @settings(max_examples=120, deadline=None)
    def test_iob_spans_equal_per_tag_decoder(self, case):
        ids, lengths = case
        labels = list(EntityLabel)
        ends = np.cumsum(lengths, dtype=np.int64)
        expected = [(i, labels.index(s.label), s.first_token, s.last_token)
                    for i, (lo, hi) in enumerate(zip(ends - lengths, ends))
                    for s in ref.decode_iob([TAG_ALPHABET[t] for t in ids[lo:hi]])]
        assert list(zip(*(a.tolist() for a in C.iob_spans(ids, lengths)))) == expected

    def test_iob_spans_lengths_must_cover_the_ids(self):
        with pytest.raises(DataError, match="3 tag ids for sentences of 2 tokens"):
            C.iob_spans(_ids("O", "B-DATE", "O"), [1, 1])

    @given(span_sets())
    @settings(max_examples=300)
    def test_decode_encode_roundtrip(self, case):
        spans, n = case
        assert span_keys(decode_iob(encode_iob(spans, n))) == span_keys(spans)

    @given(tag_sequences)
    @settings(max_examples=300)
    def test_encode_decode_is_valid_and_idempotent(self, tags):
        spans = decode_iob(tags)
        repaired = encode_iob(spans, len(tags))
        assert is_valid_iob(repaired)
        assert span_keys(decode_iob(repaired)) == span_keys(spans)
        assert all(a.last_token < b.first_token for a, b in zip(spans, spans[1:]))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("value, region", [
    (Region.MOLDAVIA, Region.MOLDAVIA), (2, Region.TRANSYLVANIA), (" wallachia ", Region.WALLACHIA),
    (7, "unknown region code 7"), (True, "unknown region True"), ("Atlantis", "unknown region"),
], ids=["region", "int code", "name", "unknown int code", "bool", "unknown name"])
def test_region_parse(value, region):
    if isinstance(region, Region):
        assert Region.parse(value) is region
    else:
        with pytest.raises(DataError, match=region):
            Region.parse(value)


class TestValidate:
    def test_well_formed(self, tiny_corpus):
        assert validate_corpus(tiny_corpus) == []

    def test_tag_length_mismatch(self):
        sent = make_sentence(["a", "b"], ["O"])
        assert len(validate_document(make_doc("d", [sent]))) == 1

    def test_empty_sentence_flagged(self):
        sents = [make_sentence(["a"], ["O"]), make_sentence([], [])]
        assert [str(v) for v in validate_document(make_doc("d", sents))] == [
            "d[1]: sentence has no tokens"]

    def test_unknown_tag_flagged(self):
        sent = make_sentence(["a", "b"], ["O", "B-ANIMAL"])
        assert [str(v) for v in validate_document(make_doc("d", [sent]))] == [
            "d[0]: unknown tag 'B-ANIMAL' at position 1"]

    def test_duplicate_ids(self, tiny_corpus):
        dup = tiny_corpus + [make_doc("doc-a", tiny_corpus[0].sentences)]
        assert any("duplicate" in v.message for v in validate_corpus(dup))

    def test_year_range_enforced(self):
        sent = make_sentence(["a"], ["O"])
        with pytest.raises(DataError):
            make_doc("d", [sent], year=2003)


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------

def _n_region_corpus(n_per_region=40, seed=0):
    rng = np.random.default_rng(seed)
    docs = []
    for region in Region:
        sents = [
            make_sentence([f"w{rng.integers(100)}" for _ in range(4)], ["O"] * 4, region)
            for _ in range(n_per_region)
        ]
        docs.append(make_doc(f"doc-{region.name.lower()}", sents, region))
    return docs


def _sentence_set(docs):
    return {
        (doc.id, i, tuple(s.token_texts))
        for doc in docs
        for i, s in enumerate(doc.sentences)
    }


class TestSplitDataset:
    @given(st.lists(st.integers(1, 200), min_size=1, max_size=len(Region)),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_fixed_ratios_per_region(self, sizes, seed):
        corpus = [
            make_doc(f"doc-{region.name.lower()}",
                     [make_sentence([f"w{i}"], ["O"], region) for i in range(n)], region)
            for region, n in zip(Region, sizes)
        ]
        splits = split_dataset(corpus, SplitSpec(seed=seed))
        def keys(docs):
            return sorted((d.id, s.tokens[0]) for d in docs for s in d.sentences)
        assert keys(splits.train + splits.valid + splits.test) == keys(corpus)
        for part, ratio in zip(splits.parts().values(), C.SPLIT_RATIOS):
            for region, n in zip(Region, sizes):
                got = sum(len(d.sentences) for d in part if d.region == region)
                assert abs(got - n * ratio) <= 1

    @pytest.mark.parametrize("seed", [-1, 1.0, True, None])
    def test_invalid_seed_names_the_field(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            split_dataset(_n_region_corpus(), SplitSpec(seed=seed))

    def test_deterministic(self):
        corpus = _n_region_corpus()
        a = split_dataset(corpus, SplitSpec(seed=11))
        b = split_dataset(corpus, SplitSpec(seed=11))
        assert dumps_jsonl(a.train) == dumps_jsonl(b.train)
        assert dumps_jsonl(a.test) == dumps_jsonl(b.test)

    def test_counts_80_10_10(self):
        corpus = _n_region_corpus(40)
        splits = split_dataset(corpus, SplitSpec(seed=0))
        def count(part):
            return sum(len(d.sentences) for d in part)
        assert count(splits.train) == 128
        assert count(splits.valid) == 16
        assert count(splits.test) == 16

    def test_partition_property(self):
        corpus = _n_region_corpus(17, seed=3)
        splits = split_dataset(corpus, SplitSpec(seed=5))
        parts = [splits.train, splits.valid, splits.test]
        union = set()
        total = 0
        for part in parts:
            keys = _sentence_set(part)
            assert not (union & keys)
            union |= keys
            total += len(keys)
        assert total == len(_sentence_set(corpus))

    def test_region_proportions_within_one_sentence(self):
        corpus = _n_region_corpus(23, seed=9)
        splits = split_dataset(corpus, SplitSpec(seed=2))
        for part, ratio in ((splits.train, 0.8), (splits.valid, 0.1), (splits.test, 0.1)):
            for region in Region:
                got = sum(
                    1 for d in part for s in d.sentences if s.region == region
                )
                assert abs(got - 23 * ratio) <= 1

    @given(st.lists(st.tuples(st.lists(st.sampled_from(list(Region)), min_size=1, max_size=6),
                              st.sampled_from(list(Region)),
                              st.none() | st.integers(C.YEAR_MIN, C.YEAR_MAX)),
                    min_size=1, max_size=6),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_split_file_of_a_split_gives_the_same_parts(self, docs, seed):
        corpus = [
            C.Document(id=f"doc{d}", region=region, year=year, sentences=[
                make_sentence([f"w{d}-{i}"], ["O"], r) for i, r in enumerate(regions)])
            for d, (regions, region, year) in enumerate(docs)
        ]
        position = {id(s): f"{doc.id}#{i}" for doc in corpus for i, s in enumerate(doc.sentences)}
        splits = split_dataset(corpus, SplitSpec(seed=seed))
        mapping = {part: [position[id(s)] for doc in part_docs for s in doc.sentences]
                   for part, part_docs in splits.parts().items()}
        from_file = apply_split_file(corpus, mapping)
        for part, part_docs in splits.parts().items():
            assert dumps_jsonl(from_file.parts()[part]) == dumps_jsonl(part_docs)
        for doc in corpus:
            landed = {part for part, entries in mapping.items()
                      if any(e.startswith(doc.id + "#") for e in entries)}
            for result in (splits, from_file):
                appears = {part: [(d.id, d.region, d.year) for d in part_docs if d.id == doc.id]
                           for part, part_docs in result.parts().items()}
                assert {part for part, found in appears.items() if found} == landed
                for part in landed:
                    assert appears[part] == [(doc.id, doc.region, doc.year)]

    def test_split_file_override(self, tiny_corpus):
        mapping = {"train": ["doc-a", "doc-b#0"], "valid": [], "test": ["doc-c"]}
        with pytest.raises(DataError):
            apply_split_file(tiny_corpus, {"train": [], "valid": []})
        mapping = {"train": ["doc-a", "doc-b"], "valid": ["doc-c"], "test": []}
        with pytest.raises(DataError):
            # unassigned sentences are an error, so build a complete mapping first
            apply_split_file(tiny_corpus[:2], mapping)
        with pytest.raises(DataError, match="leaves 1 sentences unassigned"):
            apply_split_file(tiny_corpus, {**mapping, "valid": []})
        splits = apply_split_file(tiny_corpus, mapping)
        assert [d.id for d in splits.train] == ["doc-a", "doc-b"]
        assert [d.id for d in splits.valid] == ["doc-c"]
        assert splits.test == []

    def test_split_file_rejects_double_assignment(self, tiny_corpus):
        mapping = {"train": ["doc-a", "doc-a#0"], "valid": ["doc-b"], "test": ["doc-c"]}
        with pytest.raises(DataError):
            apply_split_file(tiny_corpus, mapping)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

class TestCorpusStats:
    def test_empty(self):
        stats = corpus_stats([])
        assert stats.total.entities == 0
        assert stats.total.tokens_per_entity == 0.0

    def test_single_two_token_person(self):
        sent = make_sentence(["Ion", "Popescu"], ["B-PERSON", "I-PERSON"])
        stats = corpus_stats([make_doc("d", [sent])])
        cell = stats.cells[(EntityLabel.PERSON, Region.BESSARABIA)]
        assert cell.entities == 1
        assert cell.entity_tokens == 2
        assert cell.tokens_per_entity == 2.0

    def test_totals_equal_region_sums(self, tiny_corpus):
        stats = corpus_stats(tiny_corpus)
        for label in EntityLabel:
            total = stats.label_total(label)
            by_region = [
                stats.cells.get((label, r), C.StatsCell()) for r in Region
            ]
            assert total.entities == sum(c.entities for c in by_region)
            assert total.entity_tokens == sum(c.entity_tokens for c in by_region)

    def test_unknown_tag_rejected(self, tiny_corpus):
        tiny_corpus[2].sentences[0].tags[1] = "B-ORG"
        with pytest.raises(TagError, match="unknown tag 'B-ORG' at position 1"):
            corpus_stats(tiny_corpus)

    def test_cells_in_order_of_first_span(self, tiny_corpus):
        assert list(corpus_stats(tiny_corpus).cells) == [
            (EntityLabel.PERSON, Region.TRANSYLVANIA), (EntityLabel.LOCATION, Region.TRANSYLVANIA),
            (EntityLabel.DATE, Region.WALLACHIA), (EntityLabel.LOCATION, Region.WALLACHIA),
            (EntityLabel.ORGANISATION, Region.BESSARABIA)]

    def test_sentence_and_token_counts(self, tiny_corpus):
        stats = corpus_stats(tiny_corpus)
        assert stats.n_sentences == 3
        assert stats.n_tokens == 12

    def test_text_table_rows_match_json(self, tiny_corpus):
        stats = corpus_stats(tiny_corpus)
        payload = stats.to_json_dict()
        lines = stats.render_text().splitlines()
        assert lines[0] == "documents: 3  sentences: 3  tokens: 12"
        rows = [line.split() for line in lines[3:]]
        expected = [
            [label, region, str(cell["entity_tokens"]), str(cell["entities"]),
             f"{cell['tokens_per_entity']:.2f}"]
            for label, cells in payload["per_label"].items() for region, cell in cells.items()
        ]
        expected.append(["Total", "-", str(payload["entity_tokens"]),
                         str(payload["entities"]), f"{payload['tokens_per_entity']:.2f}"])
        assert rows == expected


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

class TestJsonl:
    # json.dumps escapes control characters but writes these line breaks as they are
    @pytest.mark.parametrize("token", ["Popescu", "Pop\u2028escu", "Pop\u2029escu", "Pop\x85escu"],
                             ids=["plain", "U+2028", "U+2029", "U+0085"])
    def test_roundtrip(self, tiny_corpus, token):
        tiny_corpus[0].sentences[0].tokens[1] = token
        loaded = loads_jsonl(dumps_jsonl(tiny_corpus))
        assert dumps_jsonl(loaded) == dumps_jsonl(tiny_corpus)
        assert [d.id for d in loaded] == [d.id for d in tiny_corpus]
        assert loaded[1].year == 1848

    def test_truncated_line_reports_number(self):
        good = '{"doc_id": "d", "region": "Moldavia", "tokens": ["a"], "tags": ["O"]}'
        with pytest.raises(DataError) as err:
            loads_jsonl(good + "\n" + good[:25])
        assert "line 2" in str(err.value)

    def test_missing_key(self):
        with pytest.raises(DataError):
            loads_jsonl('{"doc_id": "d", "tokens": ["a"], "tags": ["O"]}')

    def test_unknown_region(self):
        with pytest.raises(DataError):
            loads_jsonl('{"doc_id": "d", "region": "Banat", "tokens": ["a"], "tags": ["O"]}')


class TestConll:
    def test_format(self):
        sent = make_sentence(["Ion"], ["B-PERSON"])
        assert dumps_conll([make_doc("d", [sent])]) == "Ion\tB-PERSON\n\n"

    def test_blank_line_between_sentences(self, tiny_corpus):
        out = dumps_conll(tiny_corpus)
        assert out.count("\n\n") == 3
        lines = [l for l in out.split("\n") if l]
        assert all("\t" in l for l in lines)


class TestBratDocument:
    def test_two_line_document(self):
        text = "Mihai merge.\nAnul 1848 vine."
        ann = "T1\tPERSON 0 5\tMihai\nT2\tDATE 18 22\t1848"
        doc = document_from_brat("d1", Region.MOLDAVIA, text, ann)
        assert len(doc.sentences) == 2
        assert doc.sentences[0].tags[0] == "B-PERSON"
        assert doc.sentences[1].tags == ["O", "B-DATE", "O", "."[:0] + "O"]

    def test_span_crossing_lines_rejected(self):
        text = "abc\ndef"
        ann = "T1\tPERSON 2 5\tc\nd"
        with pytest.raises((AlignmentError, BratParseError)):
            document_from_brat("d", Region.MOLDAVIA, text, ann)

    def test_span_on_blank_line_rejected(self):
        text = "Ion vine\n \nla Iasi\n"
        ann = "T1\tPERSON 0 3\tIon\nT2\tDATE 9 10\t "
        with pytest.raises(AlignmentError, match=r"span \[9, 10\) ' ' covers no token"):
            document_from_brat("d", Region.MOLDAVIA, text, ann)

    def test_blank_lines_without_spans_skipped(self):
        text = "Ion vine\r\n \t\r\n\n\u00a0\nla Iasi\n"
        doc = document_from_brat("d", Region.MOLDAVIA, text, "T1\tPERSON 0 3\tIon")
        assert [s.tokens for s in doc.sentences] == [["Ion", "vine"], ["la", "Iasi"]]
        assert [s.tags for s in doc.sentences] == [["B-PERSON", "O"], ["O", "O"]]


#: Words with Romanian diacritics, in NFC (comma-below and cedilla forms
#: both), a number and punctuation; and what may stand between them on a
#: line, where U+2028, U+0085 and U+00A0 are whitespace that ends no line.
_BRAT_WORDS = ["Ia\u0219i", "Bra\u0219ov", "\u021bara", "\u0163ara", "Rom\u00e2neasc\u0103",
               "\u00een", "\u015fi", "anul", "1848", ",", "."]
_BRAT_GAPS = ["", " ", "\u2028", "\x85", "\u00a0", " \u00a0 "]


@st.composite
def brat_documents(draw):
    """NFC text of one to four lines, some of them blank, and spans as
    (label, start, end) character ranges, each within one line and apart
    from the others. A span starts and ends at a word's edge or anywhere,
    so it may cut into a word, cover only whitespace, or reach the token
    of another span."""
    text, spans = "", []
    for _ in range(draw(st.integers(1, 4))):
        words = draw(st.lists(st.sampled_from(_BRAT_WORDS), max_size=4))
        gaps = draw(st.lists(st.sampled_from(_BRAT_GAPS), min_size=len(words) + 1,
                             max_size=len(words) + 1))
        edges, line = {0}, gaps[0]
        for word, gap in zip(words, gaps[1:]):
            edges |= {len(line), len(line) + len(word)}
            line += word + gap
        word_edge = st.sampled_from(sorted(edges))
        at = st.one_of(word_edge, word_edge, st.integers(0, len(line)))
        points = sorted(draw(st.sets(at, min_size=min(2, len(line) + 1), max_size=4)))
        for start, end in zip(points[::2], points[1::2]):
            spans.append((draw(st.sampled_from(list(EntityLabel))), len(text) + start,
                          len(text) + end))
        text += line + "\n"
    return text, spans


def _brat_pair(text, spans, form, newline):
    """The ``.txt`` and ``.ann`` of NFC ``text`` and its spans, in Unicode
    ``form`` with lines ended by ``newline``, the offsets counted anew."""
    pieces = [unicodedata.normalize(form, ch).replace("\n", newline) for ch in text]
    at = np.cumsum([0] + [len(p) for p in pieces]).tolist()
    txt = "".join(pieces)
    ann = "".join(f"T{n}\t{label.name} {at[a]} {at[b]}\t{txt[at[a]:at[b]]}{newline}"
                  for n, (label, a, b) in enumerate(spans, start=1))
    return txt, ann


def _convert_brat(root: Path, txt: str, ann: str) -> tuple[int, str, bytes | None]:
    """``histner convert`` of the pair in ``root``: the exit code, stderr and
    the ``corpus.jsonl`` written, if any."""
    (root / "moldavia").mkdir(parents=True)
    for name, content in (("a.txt", txt), ("a.ann", ann)):
        (root / "moldavia" / name).write_text(content, encoding="utf-8", newline="")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["convert", "--from", "brat", "--to", "jsonl", "--input",
                         str(root / "moldavia"), "--out", str(root / "o")])
    out = root / "o" / "corpus.jsonl"
    return code, err.getvalue(), out.read_bytes() if out.exists() else None


class TestBratInvariance:
    @given(brat_documents())
    @settings(max_examples=30, deadline=None)
    def test_nfd_and_crlf_forms_convert_as_the_nfc_lf_form(self, document):
        text, spans = document
        with tempfile.TemporaryDirectory() as tmp:
            results = [_convert_brat(Path(tmp) / f"{form}-{len(newline)}",
                                     *_brat_pair(text, spans, form, newline))
                       for form, newline in (("NFC", "\n"), ("NFD", "\n"), ("NFC", "\r\n"))]
        (code, err, converted), others = results[0], results[1:]
        for other_code, other_err, other_converted in results:
            assert other_code in (0, 1) and "Traceback" not in other_err
            if other_code == 1:
                assert len([l for l in other_err.splitlines() if l.startswith("error:")]) == 1
        assert [other[0] for other in others] == [code, code]
        if code == 0:
            assert [other[2] for other in others] == [converted, converted]
            tags = [t for line in converted.decode().splitlines() for t in json.loads(line)["tags"]]
            assert sum(t.startswith("B-") for t in tags) == len(spans)


_RELEASE_ROW = {"tokens": ["Ion", "merge"], "ner_tags": [1, 0], "region": "Moldavia"}


class TestHistneroAdapter:
    def test_reads_release_layout(self, tmp_path):
        row = {
            "id": "sent-1",
            "tokens": ["Ion", "merge"],
            "ner_tags": [1, 0],
            "region": "Moldavia",
        }
        for name in ("train", "valid", "test"):
            (tmp_path / f"{name}.json").write_text(json.dumps(row) + "\n")
        splits = C.load_histnero(tmp_path)
        sent = splits.train[0].sentences[0]
        assert sent.tags == ["B-PERSON", "O"]
        assert sent.region == Region.MOLDAVIA

    @pytest.mark.parametrize("record", [
        {**_RELEASE_ROW, "tokens": "Ion"},
        {**_RELEASE_ROW, "tokens": ["Ion", 7]},
        {**_RELEASE_ROW, "ner_tags": "O"},
        {**_RELEASE_ROW, "ner_tags": [1, "O"]},
        {**_RELEASE_ROW, "ner_tags": [-1, 0]},
        {**_RELEASE_ROW, "ner_tags": [True, False]},
        {"tokens": ["Ion", "merge"], "ner_tags": [1, 0], "region_id": True},
        [1, 2],
        {"tokens": ["Ion", "merge"], "region": "Moldavia"},
        {"tokens": ["Ion", "merge"], "ner_tags": [1, 0]},
    ], ids=["tokens string", "token number", "tags string", "tags mixed",
            "negative tag index", "tags bool", "region_id bool", "record is an array",
            "no tags", "no region"])
    def test_malformed_record_names_its_line(self, tmp_path, record):
        for name in ("train", "valid", "test"):
            (tmp_path / f"{name}.json").write_text(json.dumps(_RELEASE_ROW) + "\n")
        (tmp_path / "valid.json").write_text(
            json.dumps(_RELEASE_ROW) + "\n" + json.dumps(record) + "\n")
        with pytest.raises(DataError, match="line 2"):
            C.load_histnero(tmp_path)

    # the blank second line is counted: errors name file lines, not records
    @pytest.mark.parametrize("bad_line, message", [
        ("{nope", "line 3: invalid JSON"),
        (json.dumps({**_RELEASE_ROW, "region": "Atlantis"}), "line 3: unknown region 'Atlantis'"),
        (json.dumps({**_RELEASE_ROW, "id": "valid-00000", "year": 1900}),
         "line 3: document 'valid-00000' has year 1900, but None at line 1"),
        (json.dumps({"ner_tags": [1, 0], "region": "Moldavia"}), "line 3: no 'tokens' field"),
    ], ids=["invalid JSON", "unknown region", "document years disagree", "no tokens"])
    def test_bad_line_names_its_file_line(self, tmp_path, bad_line, message):
        for name in ("train", "valid", "test"):
            (tmp_path / f"{name}.json").write_text(json.dumps(_RELEASE_ROW) + "\n")
        (tmp_path / "valid.json").write_text(json.dumps(_RELEASE_ROW) + "\n\n" + bad_line + "\n")
        with pytest.raises(DataError, match=f"valid.json: {message}"):
            C.load_histnero(tmp_path)

    @pytest.mark.parametrize("layout", ["[{}]", "{}\n"], ids=["JSON array", "JSON lines"])
    def test_int_too_long_to_convert_names_its_file(self, tmp_path, layout):
        for name in ("train", "valid", "test"):
            (tmp_path / f"{name}.json").write_text(json.dumps(_RELEASE_ROW) + "\n")
        (tmp_path / "test.json").write_text(layout.format('{"id": 1' + "0" * 5000 + "}"))
        with pytest.raises(DataError, match="test.json: .*invalid JSON"):
            C.load_histnero(tmp_path)

    def test_missing_part(self, tmp_path):
        (tmp_path / "train.json").write_text(json.dumps(_RELEASE_ROW) + "\n")
        with pytest.raises(DataError, match="no valid file found"):
            C.load_histnero(tmp_path)

    def test_non_utf8_part_names_its_file(self, tmp_path):
        for name in ("train", "valid", "test"):
            (tmp_path / f"{name}.json").write_text(json.dumps(_RELEASE_ROW) + "\n")
        (tmp_path / "test.json").write_bytes(b"\xff" + json.dumps(_RELEASE_ROW).encode())
        with pytest.raises(DataError, match="test.json: not UTF-8"):
            C.load_histnero(tmp_path)


# ---------------------------------------------------------------------------
# A sentence is its token strings, whichever builder made it
# ---------------------------------------------------------------------------

def _jsonl_sentences(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps(_RELEASE_ROW | {"doc_id": "d", "tags": ["B-PERSON", "O"]}) + "\n")
    return list(C.iter_sentences(C.load_jsonl(path)))


def _split_sentences(splits):
    return [s for part in splits.parts().values() for s in C.iter_sentences(part)]


def _release_sentences(tmp_path):
    for name in ("train", "valid", "test"):
        (tmp_path / f"{name}.json").write_text(json.dumps(_RELEASE_ROW) + "\n")
    return _split_sentences(C.load_histnero(tmp_path))


SENTENCE_BUILDERS = {
    "load_jsonl": _jsonl_sentences,
    "load_histnero": _release_sentences,
    "document_from_brat": lambda _: document_from_brat(
        "d", Region.MOLDAVIA, "Mihai merge.\nAnul 1848 vine.", "T1\tPERSON 0 5\tMihai").sentences,
    "sentence_from_texts": lambda _: [C.sentence_from_texts(["Ion", "vine"], ["B-PERSON", "O"],
                                                            Region.WALLACHIA)],
    "two_domain_corpus": lambda _: _split_sentences(synthetic.two_domain_corpus(0)),
    "regional_corpus": lambda _: _split_sentences(synthetic.regional_corpus(0)),
    "separable_corpus": lambda _: list(C.iter_sentences(
        synthetic.separable_corpus(0, n_sentences=40, vocab_size=512))),
}


@pytest.mark.parametrize("builder", list(SENTENCE_BUILDERS))
def test_sentence_tokens_are_strings(builder, tmp_path):
    sentences = SENTENCE_BUILDERS[builder](tmp_path)
    assert sentences
    for sent in sentences:
        assert all(type(t) is str for t in sent.tokens), sent.tokens
        assert sent.token_texts is sent.tokens
