from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from histner.corpus import EntityLabel, EntitySpan, Region, TAG_ALPHABET, decode_iob, iob_spans
from histner.errors import DataError, TagError
from histner.metrics import (
    PRF,
    StrictF1Report,
    cohens_kappa,
    iaa_report,
    span_counts,
    strict_f1,
    token_accuracy,
)

import reference_ops as ref
from conftest import make_doc, make_sentence


def spans(*keys):
    return [EntitySpan(label, first, last) for label, first, last in keys]


P, L, D, O_, PR = (
    EntityLabel.PERSON,
    EntityLabel.LOCATION,
    EntityLabel.DATE,
    EntityLabel.ORGANISATION,
    EntityLabel.PRODUCT,
)


class TestPRF:
    def test_zero_conventions(self):
        prf = PRF.from_counts(0, 0, 0)
        assert (prf.precision, prf.recall, prf.f1) == (0.0, 0.0, 0.0)

    def test_basic_counts(self):
        prf = PRF.from_counts(3, 1, 2)
        assert prf.precision == 0.75
        assert prf.recall == 0.6
        assert prf.f1 == pytest.approx(2 * 0.75 * 0.6 / 1.35)


class TestStrictF1:
    def test_perfect(self):
        gold = [spans((P, 0, 1), (D, 3, 3))]
        report = strict_f1(gold, gold)
        assert report.overall.f1 == 1.0
        assert report.overall.precision == 1.0

    def test_boundary_miss_counts_both_ways(self):
        # pred C differs from gold B by one boundary token: tp=1, fp=1, fn=1
        gold = [spans((P, 0, 1), (L, 3, 4))]
        pred = [spans((P, 0, 1), (L, 3, 5))]
        report = strict_f1(gold, pred)
        assert (report.overall.tp, report.overall.fp, report.overall.fn) == (1, 1, 1)
        assert report.overall.f1 == 0.5

    def test_empty_both(self):
        report = strict_f1([[]], [[]])
        assert report.overall.f1 == 0.0

    def test_wrong_label_same_boundaries(self):
        gold = [spans((P, 0, 1))]
        pred = [spans((L, 0, 1))]
        report = strict_f1(gold, pred)
        assert (report.overall.tp, report.overall.fp, report.overall.fn) == (0, 1, 1)
        assert report.per_label[P].fn == 1
        assert report.per_label[L].fp == 1

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            strict_f1([[]], [[], []])

    def test_per_label_restriction(self):
        gold = [spans((P, 0, 0), (D, 2, 2))]
        pred = [spans((P, 0, 0), (D, 3, 3))]
        report = strict_f1(gold, pred)
        assert report.per_label[P].f1 == 1.0
        assert report.per_label[D].f1 == 0.0


tag_lists = st.lists(
    st.lists(st.sampled_from(TAG_ALPHABET), min_size=0, max_size=10),
    min_size=1,
    max_size=5,
)


def _oracle_spans(tags):
    # independent span extractor: group maximal runs by scanning pairs
    out = []
    i = 0
    while i < len(tags):
        tag = tags[i]
        if tag == "O":
            i += 1
            continue
        label = tag.split("-", 1)[1]
        j = i + 1
        while j < len(tags) and tags[j] == "I-" + label:
            j += 1
        out.append((label, i, j - 1))
        i = j
    return out


def _oracle_prf(gold_tags, pred_tags, label=None):
    from collections import Counter

    tp = fp = fn = 0
    for g, p in zip(gold_tags, pred_tags):
        cg, cp = (
            Counter(s for s in _oracle_spans(tags) if label is None or s[0] == label)
            for tags in (g, p)
        )
        inter = sum((cg & cp).values())
        tp += inter
        fp += sum(cp.values()) - inter
        fn += sum(cg.values()) - inter
    return tp, fp, fn


class TestStrictF1Properties:
    @given(tag_lists, tag_lists)
    @settings(max_examples=200)
    def test_matches_bruteforce_oracle(self, gold_tags, pred_tags):
        n = min(len(gold_tags), len(pred_tags))
        gold_tags, pred_tags = gold_tags[:n], pred_tags[:n]
        report = strict_f1(
            [decode_iob(t) for t in gold_tags], [decode_iob(t) for t in pred_tags]
        )
        assert (report.overall.tp, report.overall.fp, report.overall.fn) == _oracle_prf(
            gold_tags, pred_tags
        )
        for label, prf in report.per_label.items():
            assert (prf.tp, prf.fp, prf.fn) == _oracle_prf(gold_tags, pred_tags, label.name)

    @given(tag_lists, tag_lists)
    @settings(max_examples=100)
    def test_swap_exchanges_precision_recall(self, gold_tags, pred_tags):
        n = min(len(gold_tags), len(pred_tags))
        g = [decode_iob(t) for t in gold_tags[:n]]
        p = [decode_iob(t) for t in pred_tags[:n]]
        ab = strict_f1(g, p).overall
        ba = strict_f1(p, g).overall
        assert ab.precision == ba.recall
        assert ab.recall == ba.precision
        assert ab.f1 == pytest.approx(ba.f1, abs=1e-12)

    @given(tag_lists, st.randoms(use_true_random=False))
    @settings(max_examples=100)
    def test_micro_f1_invariant_under_reordering(self, gold_tags, rnd):
        pred_tags = [list(reversed(t)) for t in gold_tags]
        g = [decode_iob(t) for t in gold_tags]
        p = [decode_iob(t) for t in pred_tags]
        order = list(range(len(g)))
        rnd.shuffle(order)
        before = strict_f1(g, p).overall
        after = strict_f1([g[i] for i in order], [p[i] for i in order]).overall
        assert before == after


@st.composite
def gold_and_pred_ids(draw):
    """Up to eight sentences of up to six tags, some of them empty, as a
    gold and a predicted flat tag-id array; a predicted id is the gold one
    or any other, so that spans often match and often just miss."""
    lengths = draw(st.lists(st.integers(0, 6), max_size=8))
    tag_id = st.integers(0, len(TAG_ALPHABET) - 1)
    gold = draw(st.lists(tag_id, min_size=sum(lengths), max_size=sum(lengths)))
    pred = [g if p is None else p
            for g, p in zip(gold, draw(st.lists(st.none() | tag_id, min_size=len(gold),
                                                max_size=len(gold))))]
    return np.array(gold, dtype=np.int64), np.array(pred, dtype=np.int64), lengths


def _per_tag_spans(ids, lengths):
    """Each sentence's spans from the per-tag reference decoder."""
    ends = np.cumsum(lengths, dtype=np.int64)
    return [ref.decode_iob([TAG_ALPHABET[i] for i in ids[lo:hi]])
            for lo, hi in zip(ends - lengths, ends)]


#: Spans over four tokens and two labels, so that drawn lists hold
#: duplicate, nested and overlapping spans.
_small_spans = st.tuples(st.sampled_from([P, D]), st.integers(0, 3), st.integers(0, 3)).map(
    lambda t: EntitySpan(t[0], min(t[1], t[2]), max(t[1], t[2])))


@st.composite
def aligned_span_lists(draw):
    n = draw(st.integers(0, 5))
    span_list = st.lists(_small_spans, max_size=5)
    return (draw(st.lists(span_list, min_size=n, max_size=n)),
            draw(st.lists(span_list, min_size=n, max_size=n)))


class TestSpanCountsOracle:
    @given(gold_and_pred_ids())
    @settings(max_examples=70, deadline=None)
    def test_array_count_equals_counter_count(self, case):
        gold, pred, lengths = case
        counts = span_counts(iob_spans(gold, lengths), iob_spans(pred, lengths), len(lengths))
        assert counts.dtype == np.int64
        assert np.array_equal(counts, ref.span_counts(_per_tag_spans(gold, lengths),
                                                      _per_tag_spans(pred, lengths)))

    @given(aligned_span_lists())
    @settings(max_examples=70, deadline=None)
    def test_strict_f1_of_any_span_lists_equals_counter_count(self, case):
        gold, pred = case
        expected = StrictF1Report.from_counts(ref.span_counts(gold, pred).sum(axis=0))
        assert strict_f1(gold, pred) == expected


class TestTokenAccuracy:
    def test_identical(self):
        assert token_accuracy([["O", "B-DATE"]], [["O", "B-DATE"]]) == 1.0

    def test_two_thirds(self):
        got = token_accuracy([["O", "O", "B-DATE"]], [["O", "B-DATE", "B-DATE"]])
        assert got == pytest.approx(2 / 3)

    def test_all_o_prediction_on_sparse_entities(self):
        # corpus with exactly 5% entity tokens: all-O scores 0.95
        gold = [["B-PERSON"] + ["O"] * 19] * 5
        pred = [["O"] * 20] * 5
        assert token_accuracy(gold, pred) == pytest.approx(0.95)

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            token_accuracy([["O", "O"]], [["O"]])

    @pytest.mark.parametrize("tags", [[], [[]]], ids=["no sentences", "empty sentence"])
    def test_no_tokens_rejected(self, tags):
        with pytest.raises(DataError, match="no tokens to score"):
            token_accuracy(tags, tags)


@pytest.mark.parametrize("score", [token_accuracy, cohens_kappa])
@pytest.mark.parametrize("a, b, message", [
    ([["O"], ["O"]], [["O"]], "has 2 sentences"),
    ([["O"], ["O", "O"]], [["O"], ["O"]], "sentence 1: "),
], ids=["sentence count", "sentence length"])
def test_misaligned_tag_lists_rejected(score, a, b, message):
    with pytest.raises(DataError, match=message):
        score(a, b)


def _reference_kappa(tags_a, tags_b):
    """Cohen's kappa of two flat tag lists, with p_e summed over a Counter
    of A's tags, in the order it iterates."""
    n = len(tags_a)
    p_o = sum(1 for a, b in zip(tags_a, tags_b) if a == b) / n
    count_a, count_b = Counter(tags_a), Counter(tags_b)
    p_e = sum((count_a[c] / n) * (count_b[c] / n) for c in count_a)
    return 1.0 if p_e == 1.0 == p_o else (p_o - p_e) / (1 - p_e)


@st.composite
def aligned_tag_lists(draw):
    """Two lists of one to four sentences of equal lengths, tags drawn from
    the alphabet and from strings outside it."""
    tags = st.sampled_from(TAG_ALPHABET + ("X", "b-person", "B-PERSON "))
    lengths = draw(st.lists(st.integers(1, 8), min_size=1, max_size=4))
    return tuple([draw(st.lists(tags, min_size=n, max_size=n)) for n in lengths] for _ in "ab")


class TestCohensKappa:
    def test_identical_nonconstant(self):
        tags = [["O", "B-DATE", "O", "B-PERSON"]]
        assert cohens_kappa(tags, tags) == 1.0

    def test_hand_example_exact(self):
        a = [["O", "O", "B-DATE", "B-DATE"]]
        b = [["O", "B-DATE", "B-DATE", "B-DATE"]]
        assert cohens_kappa(a, b) == 0.5

    def test_empty_input(self):
        with pytest.raises(DataError):
            cohens_kappa([], [])

    def test_constant_identical(self):
        # p_e = 1 with p_o = 1 is defined as 1.0
        tags = [["O", "O", "O"]]
        assert cohens_kappa(tags, tags) == 1.0

    def test_independent_random_near_zero(self):
        rng = np.random.default_rng(0)
        kappas = []
        for _ in range(100):
            a = rng.choice(TAG_ALPHABET, size=10_000, p=None)
            b = rng.choice(TAG_ALPHABET, size=10_000, p=None)
            kappas.append(cohens_kappa([list(a)], [list(b)]))
        assert abs(float(np.mean(kappas))) < 0.05

    @given(
        st.lists(st.sampled_from(TAG_ALPHABET), min_size=2, max_size=40),
        st.lists(st.sampled_from(TAG_ALPHABET), min_size=2, max_size=40),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=150)
    def test_relabeling_invariance(self, a, b, rnd):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        perm = list(TAG_ALPHABET)
        rnd.shuffle(perm)
        mapping = dict(zip(TAG_ALPHABET, perm))
        try:
            original = cohens_kappa([a], [b])
            relabeled = cohens_kappa([[mapping[t] for t in a]], [[mapping[t] for t in b]])
        except DataError:
            return
        assert original == pytest.approx(relabeled, abs=1e-12)
        assert original <= 1.0 + 1e-12

    @given(st.lists(st.sampled_from(TAG_ALPHABET), min_size=1, max_size=40))
    @settings(max_examples=100)
    def test_self_agreement_is_one(self, tags):
        assert cohens_kappa([tags], [tags]) == 1.0

    @given(aligned_tag_lists())
    @settings(max_examples=150)
    def test_equals_counter_reference(self, lists):
        a, b = lists
        assert cohens_kappa(a, b) == _reference_kappa(
            [t for s in a for t in s], [t for s in b for t in s])


def _two_layer_docs():
    # layer B disagrees with A only on PRODUCT spans
    a1 = make_sentence(
        ["premiul", "Gazeta", "azi", "Iasi"],
        ["B-PRODUCT", "B-ORGANISATION", "O", "B-LOCATION"],
        Region.MOLDAVIA,
    )
    b1 = make_sentence(
        ["premiul", "Gazeta", "azi", "Iasi"],
        ["O", "B-ORGANISATION", "O", "B-LOCATION"],
        Region.MOLDAVIA,
    )
    a2 = make_sentence(["anul", "1900"], ["O", "B-DATE"], Region.WALLACHIA)
    return (
        [make_doc("m", [a1]), make_doc("w", [a2])],
        [make_doc("m", [b1]), make_doc("w", [a2])],
    )


def _reference_iaa_f1(layer_a, layer_b):
    """Pairwise F1 by region and by label as one strict F1 run per group."""
    sents_a = [s for d in layer_a for s in d.sentences]
    sents_b = [s for d in layer_b for s in d.sentences]
    per_region = {}
    for region in Region:
        idx = [i for i, s in enumerate(sents_a) if s.region == region]
        if idx:
            per_region[region] = strict_f1([decode_iob(sents_a[i].tags) for i in idx],
                                           [decode_iob(sents_b[i].tags) for i in idx]).overall
    per_label = {
        label: strict_f1(
            [[x for x in decode_iob(s.tags) if x.label == label] for s in sents_a],
            [[x for x in decode_iob(s.tags) if x.label == label] for s in sents_b],
        ).overall
        for label in EntityLabel
    }
    return per_region, per_label


def _reference_iaa_kappa(layer_a, layer_b):
    """Kappa overall, by region and by label, each from the Counter-based
    reference on that group's tokens, a label's tags projected to it and O."""
    sents_a = [s for d in layer_a for s in d.sentences]
    sents_b = [s for d in layer_b for s in d.sentences]

    def kappa(keep=lambda s: True, project=lambda t: t):
        return _reference_kappa(*([project(t) for s in sents if keep(s) for t in s.tags]
                                  for sents in (sents_a, sents_b)))

    return (
        kappa(),
        {region: kappa(keep=lambda s: s.region == region)
         for region in Region if any(s.region == region for s in sents_a)},
        {label: kappa(project=lambda t: t if t in ("B-" + label.name, "I-" + label.name) else "O")
         for label in EntityLabel},
    )


@st.composite
def annotation_layers(draw):
    """Two annotation layers over the same tokens, documents in id order:
    one to three sentences each, in random regions, with independently
    drawn tags."""
    layer_a, layer_b = [], []
    for d in range(draw(st.integers(1, 4))):
        sents_a, sents_b = [], []
        for _ in range(draw(st.integers(1, 3))):
            n = draw(st.integers(1, 8))
            region = draw(st.sampled_from(list(Region)))
            texts = [f"w{i}" for i in range(n)]
            for sents in (sents_a, sents_b):
                tags = draw(st.lists(st.sampled_from(TAG_ALPHABET), min_size=n, max_size=n))
                sents.append(make_sentence(texts, tags, region))
        layer_a.append(make_doc(f"d{d}", sents_a))
        layer_b.append(make_doc(f"d{d}", sents_b))
    return layer_a, layer_b


class TestIaaReport:
    @given(annotation_layers())
    @settings(max_examples=100, deadline=None)
    def test_pairwise_f1_equals_one_strict_f1_per_group(self, layers):
        report = iaa_report(*layers)
        per_region, per_label = _reference_iaa_f1(*layers)
        assert {r: c.pairwise_f1 for r, c in report.per_region.items()} == per_region
        assert {l: c.pairwise_f1 for l, c in report.per_label.items()} == per_label
        assert report.overall.pairwise_f1 == strict_f1(
            *([decode_iob(s.tags) for d in layer for s in d.sentences] for layer in layers)).overall

    @given(annotation_layers())
    @settings(max_examples=100, deadline=None)
    def test_kappa_equals_counter_reference_per_group(self, layers):
        report = iaa_report(*layers)
        overall, per_region, per_label = _reference_iaa_kappa(*layers)
        assert report.overall.kappa == overall
        assert {r: c.kappa for r, c in report.per_region.items()} == per_region
        assert {l: c.kappa for l, c in report.per_label.items()} == per_label

    def test_identical_layers(self, tiny_corpus):
        report = iaa_report(tiny_corpus, tiny_corpus)
        assert report.overall.kappa == 1.0
        assert report.overall.pairwise_f1.f1 == 1.0
        for cell in report.per_label.values():
            assert cell.kappa == 1.0
        assert report.per_region
        for cell in report.per_region.values():
            assert cell.kappa == 1.0

    def test_disagreement_localized_to_product(self):
        layer_a, layer_b = _two_layer_docs()
        report = iaa_report(layer_a, layer_b)
        assert report.per_label[PR].pairwise_f1.f1 == 0.0
        for label in (O_, EntityLabel.LOCATION, D):
            assert report.per_label[label].pairwise_f1.f1 == 1.0
            assert report.per_label[label].kappa == 1.0
        assert report.per_label[PR].kappa < 1.0

    def test_doc_id_mismatch(self, tiny_corpus):
        other = [make_doc("zzz", d.sentences) for d in tiny_corpus]
        with pytest.raises(DataError):
            iaa_report(tiny_corpus, other)

    def test_tokenization_mismatch(self):
        a = [make_doc("d", [make_sentence(["a", "b"], ["O", "O"])])]
        b = [make_doc("d", [make_sentence(["ab"], ["O"])])]
        with pytest.raises(DataError):
            iaa_report(a, b)
        # as many tokens, but other words
        tags = ["B-PERSON", "O"]
        a = [make_doc("d", [make_sentence(["anul", "1900"], ["O", "B-DATE"]),
                            make_sentence(["Ion", "merge"], tags, Region.MOLDAVIA)])]
        b = [make_doc("d", [make_sentence(["anul", "1900"], ["O", "B-DATE"]),
                            make_sentence(["Iasi", "azi"], tags, Region.MOLDAVIA)])]
        with pytest.raises(DataError, match="document 'd', sentence 1: token text"):
            iaa_report(a, b)
        # the same tokens, but a tag fewer
        b = [make_doc("d", [make_sentence(["anul", "1900"], ["O", "B-DATE"]),
                            make_sentence(["Ion", "merge"], ["B-PERSON"], Region.MOLDAVIA)])]
        with pytest.raises(DataError, match="document 'd', sentence 1: token text, region or tag"):
            iaa_report(a, b)

    @pytest.mark.parametrize("layer", ["a", "b"])
    def test_unknown_tag_rejected(self, tiny_corpus, layer):
        a, b = tiny_corpus, [make_doc(d.id, d.sentences) for d in tiny_corpus]
        sentence = (a if layer == "a" else b)[1].sentences[0]
        (a if layer == "a" else b)[1] = make_doc("doc-b", [make_sentence(
            sentence.tokens, ["O", "B-DATE", "O", "B-LOC"], sentence.region)])
        with pytest.raises(TagError, match="unknown tag 'B-LOC' at position 3"):
            iaa_report(a, b)

    def test_region_mismatch(self):
        tokens, tags = ["Ion", "merge"], ["B-PERSON", "O"]
        a = [make_doc("d", [make_sentence(tokens, tags, Region.MOLDAVIA)])]
        b = [make_doc("d", [make_sentence(tokens, tags, Region.WALLACHIA)])]
        with pytest.raises(DataError, match="document 'd', sentence 0: token text, region"):
            iaa_report(a, b)

    def test_agreement_ordering_tracks_disagreement_rates(self):
        # one layer pair where DATE is annotated consistently but PRODUCT
        # labels disagree on most mentions: the report must rank DATE
        # agreement above PRODUCT agreement
        rng = np.random.default_rng(4)
        sents_a, sents_b = [], []
        for _ in range(200):
            tags_a = ["O"] * 6
            tags_b = ["O"] * 6
            tags_a[0] = tags_b[0] = "B-DATE"
            if rng.random() < 0.03:
                tags_b[0] = "O"
            tags_a[3] = "B-PRODUCT"
            tags_b[3] = "B-PRODUCT" if rng.random() < 0.3 else "O"
            texts = [f"w{i}" for i in range(6)]
            sents_a.append(make_sentence(texts, tags_a, Region.BESSARABIA))
            sents_b.append(make_sentence(texts, tags_b, Region.BESSARABIA))
        report = iaa_report(
            [make_doc("d", sents_a)], [make_doc("d", sents_b)]
        )
        assert report.per_label[D].kappa > report.per_label[PR].kappa
        assert report.per_label[D].pairwise_f1.f1 > report.per_label[PR].pairwise_f1.f1

    def test_json_keys(self, tiny_corpus):
        payload = iaa_report(tiny_corpus, tiny_corpus).to_json_dict()
        assert set(payload) == {"overall", "per_region", "per_label"}
