"""histner: desk-scale historical NER with regional domain adaptation.

Corpus tooling (BRAT standoff, JSONL, CoNLL, IOB2), agreement and strict-F1
metrics, per-region TF-IDF, and a small token tagger trainable in baseline,
gradient-reversal, or loss-reversal mode.
"""

__version__ = "0.1.0"

from .corpus import (
    Document,
    EntityLabel,
    EntitySpan,
    Region,
    Sentence,
    SplitSpec,
    Splits,
    TAG_ALPHABET,
    corpus_stats,
    decode_iob,
    encode_iob,
    load_histnero,
    load_jsonl,
    save_jsonl,
    split_dataset,
    validate_corpus,
    validate_document,
)
from .brat import Token, align_spans, parse_brat, tokenize
from .metrics import (
    PRF,
    AgreementReport,
    cohens_kappa,
    iaa_report,
    strict_f1,
    token_accuracy,
)
from .analysis import TfIdfEntry, tfidf_top_k
from .model import TaggerConfig, TaggerParams, featurize, init_params, predict_tags
from .training import (
    TrainConfig,
    TrainResult,
    adam_step,
    clip_gradients,
    compute_losses,
    evaluate,
    export_embeddings,
    inter_regional,
    train,
)

__all__ = [name for name in dir() if not name.startswith("_")]
