import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from histner import corpus as C
from histner import synthetic
from histner.corpus import (
    EntityLabel,
    EntitySpan,
    RawSpan,
    Region,
    SplitSpec,
    TAG_ALPHABET,
    Token,
    align_spans,
    apply_split_file,
    corpus_stats,
    decode_iob,
    dumps_conll,
    dumps_jsonl,
    encode_iob,
    is_valid_iob,
    loads_jsonl,
    parse_brat,
    split_dataset,
    tokenize,
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

from conftest import make_doc, make_sentence


# ---------------------------------------------------------------------------
# BRAT parsing
# ---------------------------------------------------------------------------

class TestParseBrat:
    def test_single_span(self):
        spans = parse_brat("Mihai merge.", "T1\tPERSON 0 5\tMihai")
        assert spans == [RawSpan(EntityLabel.PERSON, 0, 5, "Mihai")]

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
        import logging

        with caplog.at_level(logging.WARNING, logger="histner.corpus"):
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
        spans = align_spans(tokens, [RawSpan(EntityLabel.PERSON, 0, 11, "Ion Popescu")])
        assert (spans[0].first_token, spans[0].last_token) == (0, 1)

    def test_expansion_inside_token(self):
        tokens = tokenize("Ion Popescu vine")
        spans = align_spans(tokens, [RawSpan(EntityLabel.PERSON, 4, 7, "Pop")])
        assert (spans[0].first_token, spans[0].last_token) == (1, 1)

    def test_expansion_matches_brute_force(self):
        rng = np.random.default_rng(7)
        text = "unu doi trei patru cinci sase sapte opt"
        tokens = tokenize(text)
        for _ in range(300):
            a, b = sorted(rng.integers(0, len(text), size=2))
            if a == b or text[a:b].strip() == "":
                continue
            raw = RawSpan(EntityLabel.DATE, int(a), int(b), text[a:b])
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
            RawSpan(EntityLabel.PERSON, 0, 11, "Ion Popescu"),
            RawSpan(EntityLabel.LOCATION, 4, 15, "Popescu vin"),
        ]
        with pytest.raises(AlignmentError):
            align_spans(tokens, raws)

    def test_span_in_whitespace_only(self):
        tokens = tokenize("a  b")
        with pytest.raises(AlignmentError):
            align_spans(tokens, [RawSpan(EntityLabel.DATE, 1, 2, " ")])


class TestSpanConflicts:
    def test_nested_pair_is_one_violation(self):
        spans = [EntitySpan(EntityLabel.PERSON, 0, 3), EntitySpan(EntityLabel.DATE, 1, 2)]
        conflicts = C.span_conflicts(spans)
        assert len(conflicts) == 1
        assert "nested" in conflicts[0]

    def test_overlap_reported(self):
        spans = [EntitySpan(EntityLabel.PERSON, 0, 2), EntitySpan(EntityLabel.DATE, 2, 4)]
        assert len(C.span_conflicts(spans)) == 1

    def test_disjoint_clean(self):
        spans = [EntitySpan(EntityLabel.PERSON, 0, 1), EntitySpan(EntityLabel.DATE, 2, 2)]
        assert C.span_conflicts(spans) == []


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
        with pytest.raises(TagError):
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


class TestIobProperties:
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
        assert C.span_conflicts(decode_iob(tags)) == []


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

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
            "d[0]: unknown tag 'B-ANIMAL'"]

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
    def test_roundtrip(self, tiny_corpus):
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
        doc = C.document_from_brat("d1", Region.MOLDAVIA, text, ann)
        assert len(doc.sentences) == 2
        assert doc.sentences[0].tags[0] == "B-PERSON"
        assert doc.sentences[1].tags == ["O", "B-DATE", "O", "."[:0] + "O"]

    def test_span_crossing_lines_rejected(self):
        text = "abc\ndef"
        ann = "T1\tPERSON 2 5\tc\nd"
        with pytest.raises((AlignmentError, BratParseError)):
            C.document_from_brat("d", Region.MOLDAVIA, text, ann)


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
    ], ids=["tokens string", "token number", "tags string", "tags mixed",
            "negative tag index", "tags bool", "region_id bool", "record is an array"])
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
    ], ids=["invalid JSON", "unknown region"])
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
        (tmp_path / "train.json").write_text("{}")
        with pytest.raises(DataError):
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
    "document_from_brat": lambda _: C.document_from_brat(
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
