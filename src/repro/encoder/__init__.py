"""The PLM text encoder ("MiniBERT") used by retriever and updater.

A scaled-down BERT built on :mod:`repro.nn`: WordPiece is replaced by the
shared word tokenizer, IDF-weighted mean pooling provides sentence
embeddings, and a lexical initialization (IDF pooling over frozen token
embeddings) plays the role of the public BERT checkpoint before task
fine-tuning.
"""

from repro.encoder.minibert import MiniBertEncoder, EncoderConfig

__all__ = [
    "MiniBertEncoder",
    "EncoderConfig",
]
