import math

import pytest

from histner.analysis import render_tsv, tfidf_top_k
from histner.corpus import Region
from histner.errors import ConfigError

from conftest import make_doc, make_sentence


def corpus_from_texts(region_texts):
    docs = []
    for i, (region, sentences) in enumerate(region_texts.items()):
        sents = [
            make_sentence(words, ["O"] * len(words), region) for words in sentences
        ]
        docs.append(make_doc(f"doc-{i}", sents, region))
    return docs


class TestTfIdf:
    def test_term_in_all_regions_scores_zero(self):
        corpus = corpus_from_texts({r: [["comun"]] for r in Region})
        ranking = tfidf_top_k(corpus, k=3)
        for entries in ranking.values():
            assert all(e.score == 0.0 for e in entries if e.term == "comun")

    def test_hand_computed_two_region_score(self):
        corpus = corpus_from_texts(
            {
                Region.BESSARABIA: [["abc", "abc", "abc", "alt"]],
                Region.MOLDAVIA: [["alt", "alt"]],
            }
        )
        ranking = tfidf_top_k(corpus, k=2)
        top = ranking[Region.BESSARABIA][0]
        assert top.term == "abc"
        assert top.score == pytest.approx(math.log(4) * math.log(2), abs=1e-9)

    def test_k_must_be_positive(self):
        with pytest.raises(ConfigError):
            tfidf_top_k([], k=0)

    def test_single_region_warns(self):
        corpus = corpus_from_texts({Region.WALLACHIA: [["ceva", "alta"]]})
        with pytest.warns(UserWarning):
            ranking = tfidf_top_k(corpus, k=2)
        assert all(e.score == 0.0 for e in ranking[Region.WALLACHIA])

    def test_terms_lowercased_punctuation_dropped(self):
        corpus = corpus_from_texts(
            {
                Region.BESSARABIA: [["Basarabia", ",", "!"]],
                Region.MOLDAVIA: [["altceva"]],
            }
        )
        ranking = tfidf_top_k(corpus, k=5)
        terms = {e.term for e in ranking[Region.BESSARABIA]}
        assert terms == {"basarabia"}

    def test_scores_nonnegative_and_ranking_deterministic(self):
        corpus = corpus_from_texts(
            {
                Region.BESSARABIA: [["una", "doua", "doua", "trei"]],
                Region.MOLDAVIA: [["trei", "patru"]],
                Region.WALLACHIA: [["cinci"]],
            }
        )
        first = tfidf_top_k(corpus, k=10)
        second = tfidf_top_k(corpus, k=10)
        assert first == second
        for entries in first.values():
            assert all(e.score >= 0 for e in entries)
            scores = [e.score for e in entries]
            assert scores == sorted(scores, reverse=True)

    def test_duplicating_region_docs_preserves_tf_ranking(self):
        base = {
            Region.BESSARABIA: [["una", "doua", "doua", "trei", "trei", "trei"]],
            Region.MOLDAVIA: [["altceva"]],
        }
        doubled = {
            Region.BESSARABIA: base[Region.BESSARABIA] * 2,
            Region.MOLDAVIA: base[Region.MOLDAVIA],
        }
        rank_base = [e.term for e in tfidf_top_k(corpus_from_texts(base), k=10)[Region.BESSARABIA]]
        rank_doubled = [e.term for e in tfidf_top_k(corpus_from_texts(doubled), k=10)[Region.BESSARABIA]]
        assert rank_base == rank_doubled

    def test_tsv_rendering(self):
        corpus = corpus_from_texts(
            {
                Region.BESSARABIA: [["unu"]],
                Region.MOLDAVIA: [["doi"]],
            }
        )
        tsv = render_tsv(tfidf_top_k(corpus, k=1))
        lines = tsv.strip().split("\n")
        assert len(lines) == 2
        region, rank, term, score = lines[0].split("\t")
        assert region == "Bessarabia"
        assert rank == "1"
        assert len(score.split(".")[1]) == 6
