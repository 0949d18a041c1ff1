"""Text-processing substrate (tokenization, sentences, stemming, coref).

This subpackage replaces the paper's use of NLTK and neuralcoref with
self-contained implementations: a regex word tokenizer, a rule-based
sentence splitter tuned for Wikipedia-style prose, a Porter-style stemmer,
a stopword list, a vocabulary for the neural encoder, and a rule-based
pronoun coreference resolver.
"""

from repro.text.tokenize import normalize, tokenize
from repro.text.sentences import split_sentences
from repro.text.stem import stem
from repro.text.stopwords import STOPWORDS, remove_stopwords
from repro.text.vocab import Vocab
from repro.text.coref import resolve_coreferences

__all__ = [
    "normalize",
    "tokenize",
    "split_sentences",
    "stem",
    "STOPWORDS",
    "remove_stopwords",
    "Vocab",
    "resolve_coreferences",
]
