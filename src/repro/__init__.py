"""Triple-Fact Retriever — ICDE 2022 reproduction.

An explainable reasoning retrieval model for open-domain multi-hop QA,
rebuilt end-to-end in pure Python/numpy: synthetic Wikipedia-style data,
an in-process BM25 search engine, rule-based open information extraction,
the paper's partition-based triple-set construction (Algorithm 1), a
from-scratch transformer encoder, the max-matching single retriever, the
triple-fact question updater, the multi-hop pipeline with path ranking,
and every baseline the paper compares against.

Quickstart::

    from repro.core import TripleFactRetrieval
    from repro.data import World, build_corpus, build_hotpot_dataset

    world = World()
    corpus = build_corpus(world)
    dataset = build_hotpot_dataset(world, corpus)
    system = TripleFactRetrieval().fit(corpus, dataset)
    (paths,) = system.retrieve_paths_many([dataset.test[0].text], k=3)
    for path in paths:
        print(path.explain())
"""

__version__ = "1.0.0"

from repro import core, data, index, oie, triples, nn, encoder, retriever
from repro import updater, pipeline, baselines, eval, text

__all__ = [
    "core",
    "data",
    "index",
    "oie",
    "triples",
    "nn",
    "encoder",
    "retriever",
    "updater",
    "pipeline",
    "baselines",
    "eval",
    "text",
    "__version__",
]
