import pytest

from histner import model as M
from histner import training as T
from histner.corpus import Document, Region, sentence_from_texts


def make_sentence(texts, tags, region=Region.BESSARABIA):
    return sentence_from_texts(texts, tags, region)


def dense_losses(params, batch, mode, lam):
    """``training.compute_losses`` with the embedding table's row-sparse
    gradient densified, so every gradient is an array."""
    breakdown, grads = T.compute_losses(params, batch, mode, lam)
    grads[M.EMBED] = grads[M.EMBED].dense()
    return breakdown, grads


def make_doc(doc_id, sentences, region=None, year=None):
    region = region if region is not None else sentences[0].region
    return Document(id=doc_id, region=region, sentences=sentences, year=year)


@pytest.fixture
def tiny_corpus():
    s1 = make_sentence(
        ["Ion", "Popescu", "merge", "la", "Cluj"],
        ["B-PERSON", "I-PERSON", "O", "O", "B-LOCATION"],
        Region.TRANSYLVANIA,
    )
    s2 = make_sentence(
        ["anul", "1848", "in", "Bucuresti"],
        ["O", "B-DATE", "O", "B-LOCATION"],
        Region.WALLACHIA,
    )
    s3 = make_sentence(
        ["ziarul", "Albina", "scrie"],
        ["O", "B-ORGANISATION", "O"],
        Region.BESSARABIA,
    )
    return [
        make_doc("doc-a", [s1]),
        make_doc("doc-b", [s2], year=1848),
        make_doc("doc-c", [s3]),
    ]
