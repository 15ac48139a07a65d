import numpy as np

from histner.corpus import (
    Region,
    dumps_jsonl,
    iter_sentences,
    validate_corpus,
)
from histner import synthetic
from histner.model import featurize
from histner.synthetic import (
    SOURCE_DOMAIN,
    TARGET_DOMAIN,
    regional_corpus,
    separable_corpus,
    two_domain_corpus,
)

from reference_ops import is_valid_iob


def all_sentences(splits):
    for part in (splits.train, splits.valid, splits.test):
        yield from iter_sentences(part)


class TestTwoDomainCorpus:
    def test_deterministic(self):
        a, b = two_domain_corpus(5), two_domain_corpus(5)
        assert dumps_jsonl(a.train) == dumps_jsonl(b.train)
        assert dumps_jsonl(a.test) == dumps_jsonl(b.test)

    def test_seeds_differ(self):
        assert dumps_jsonl(two_domain_corpus(0).train) != dumps_jsonl(two_domain_corpus(1).train)

    def test_two_regions_only(self):
        splits = two_domain_corpus(0)
        regions = {s.region for s in all_sentences(splits)}
        assert regions == {SOURCE_DOMAIN, TARGET_DOMAIN}

    def test_well_formed(self):
        splits = two_domain_corpus(1)
        for part in (splits.train, splits.valid, splits.test):
            assert validate_corpus(part) == []
        for sent in all_sentences(splits):
            assert is_valid_iob(sent.tags)

    def test_ambiguous_types_flip_label_with_region(self):
        splits = two_domain_corpus(2)
        by_region = {SOURCE_DOMAIN: {}, TARGET_DOMAIN: {}}
        for sent in iter_sentences(splits.train):
            for token, tag in zip(sent.token_texts, sent.tags):
                by_region[sent.region].setdefault(token, set()).add(tag)
        shared = set(by_region[SOURCE_DOMAIN]) & set(by_region[TARGET_DOMAIN])
        assert shared, "expected shared-surface types across the two regions"
        flipped = [
            w for w in shared
            if by_region[SOURCE_DOMAIN][w] == {"B-PERSON"}
            and by_region[TARGET_DOMAIN][w] == {"B-LOCATION"}
        ]
        assert len(flipped) >= 5

    def test_anchor_spellings_region_exclusive(self):
        splits = two_domain_corpus(3)
        entity_surfaces = {SOURCE_DOMAIN: set(), TARGET_DOMAIN: set()}
        for sent in iter_sentences(splits.train):
            for token, tag in zip(sent.token_texts, sent.tags):
                if tag != "O" and tag not in ("B-PERSON", "B-LOCATION"):
                    entity_surfaces[sent.region].add(token)
        # DATE and ORGANISATION anchors never share spellings across regions
        assert not entity_surfaces[SOURCE_DOMAIN] & entity_surfaces[TARGET_DOMAIN]

    def test_no_hash_collisions(self):
        splits = two_domain_corpus(4)
        surfaces = sorted({t for s in all_sentences(splits) for t in s.token_texts})
        ids = featurize(surfaces, 4096)
        assert len(set(ids.tolist())) == len(surfaces)


class TestRegionalCorpus:
    def test_all_regions_present(self):
        splits = regional_corpus(0)
        for part in (splits.train, splits.test):
            regions = {s.region for s in iter_sentences(part)}
            assert regions == set(Region)

    def test_coupled_pair_shares_surfaces(self):
        splits = regional_corpus(1, coupled=True)
        vocab = {r: set() for r in Region}
        for sent in iter_sentences(splits.train):
            vocab[sent.region].update(sent.token_texts)
        assert vocab[Region.BESSARABIA] & vocab[Region.MOLDAVIA]
        assert not vocab[Region.BESSARABIA] & vocab[Region.TRANSYLVANIA]
        assert not vocab[Region.TRANSYLVANIA] & vocab[Region.WALLACHIA]

    def test_distinct_mode_has_no_shared_surfaces(self):
        splits = regional_corpus(1, coupled=False)
        vocab = {r: set() for r in Region}
        for sent in iter_sentences(splits.train):
            vocab[sent.region].update(sent.token_texts)
        for a in Region:
            for b in Region:
                if a < b:
                    assert not vocab[a] & vocab[b]

    def test_deterministic(self):
        assert dumps_jsonl(regional_corpus(7).train) == dumps_jsonl(regional_corpus(7).train)


class TestSeparableCorpus:
    def test_sentence_count(self):
        corpus = separable_corpus(0, n_sentences=200)
        assert sum(len(d.sentences) for d in corpus) == 200

    def test_types_unambiguous(self):
        corpus = separable_corpus(1, n_sentences=150, vocab_size=2048)
        label_of = {}
        for sent in iter_sentences(corpus):
            for token, tag in zip(sent.token_texts, sent.tags):
                label_of.setdefault(token, set()).add(tag)
        for token, tags in label_of.items():
            assert len(tags) == 1, f"{token} is ambiguous: {tags}"

    def test_every_type_appears_at_least_twice(self):
        corpus = separable_corpus(2, n_sentences=120, vocab_size=2048)
        counts = {}
        for sent in iter_sentences(corpus):
            for token, tag in zip(sent.token_texts, sent.tags):
                if tag != "O":
                    counts[token] = counts.get(token, 0) + 1
        assert min(counts.values()) >= 2

    def test_deterministic(self):
        a = separable_corpus(3, n_sentences=80, vocab_size=2048)
        b = separable_corpus(3, n_sentences=80, vocab_size=2048)
        assert dumps_jsonl(a) == dumps_jsonl(b)


class TestAdaptationTrial:
    def test_lambda_reaches_loss_reversal_training(self, monkeypatch):
        configs = []
        real_train = synthetic.train

        def spy(train_s, valid_s, tagger_config, config):
            configs.append(config)
            return real_train(train_s, valid_s, tagger_config, config)

        monkeypatch.setattr(synthetic, "train", spy)
        synthetic.run_adaptation_trial(0, epochs=1, lam=0.7)
        assert {c.mode: c.lam for c in configs}["loss_rev"] == 0.7
