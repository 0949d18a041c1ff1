"""Per-table experiment runners (DESIGN.md experiment index).

Each function reproduces one table/figure of the paper's Sec. IV over the
synthetic corpus, returning structured rows; the benchmarks print them and
assert the paper's qualitative *shape*.
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.data.hotpot import HotpotQuestion
from repro.eval.harness import ExperimentContext
from repro.eval.metrics import (
    RetrievalScorecard,
    paragraph_exact_match,
    paragraph_recall,
    path_exact_match,
)
from repro.oie.triple import Triple
from repro.retriever.single import SingleRetriever
from repro.retriever.store import build_triple_store
from repro.retriever.strategies import MEAN, ONE_FACT, TOP_K, ScoreStrategy
from repro.triples.construct import ConstructionConfig, TripleSetConstructor
from repro.triples.hac import hac_construct

#: the rank cut-offs of the paper's tables: BM25 PR@10 / PEM@10 (Tables
#: II–III, Ablation A) and PR@8 / PEM@8 (Tables IV–V, Wikihop)
BM25_K = 10
K = 8
#: Algorithm 1's threshold l in the HAC vs partition timing (Ablation B)
HAC_THRESHOLD = 8


# -- Table I ---------------------------------------------------------------

def run_table1(ctx: ExperimentContext) -> Dict[str, Dict[str, int]]:
    """Dataset statistics (bridge / comparison × train / test)."""
    return ctx.hotpot.statistics()


# -- Tables II / III (non-learning BM25 retrieval on different fields) ------

def _field_text(ctx: ExperimentContext, field: str, doc_id: int,
                max_tokens: int = 60) -> str:
    """The indexed content of one field for query expansion."""
    if field == "text":
        text = ctx.corpus[doc_id].text
    elif field == "triples":
        text = ctx.store.field_text(doc_id)
    elif field == "minie_triples":
        text = ctx.extractor_store("minie").field_text(doc_id)
    elif field == "stanford_triples":
        text = ctx.extractor_store("stanford").field_text(doc_id)
    else:  # pragma: no cover - defensive
        raise ValueError(f"unknown field {field!r}")
    # de-duplicate expansion terms (order-preserving): repeated subjects in
    # the triple field / repeated names in text would otherwise dominate
    # the expanded query's term frequencies
    seen = set()
    unique: List[str] = []
    for token in text.split():
        key = token.lower()
        if key not in seen:
            seen.add(key)
            unique.append(token)
    return " ".join(unique[:max_tokens])


def _lexical_scorecards(
    ctx: ExperimentContext,
    questions: Sequence[HotpotQuestion],
    fields: Sequence[str],
) -> Dict[str, Dict[str, RetrievalScorecard]]:
    """For each field: hop-1 PR and two-hop PEM scorecards.

    Hop 1 is a plain BM25 query. Hop 2 is iterative: the query is expanded
    with the *field content* of the best hop-1 document (the non-learning
    analogue of the question updater), and PEM is computed over the union
    of the top hop-1 and hop-2 documents. The field being indexed is also
    the field used for expansion, so a noisy field hurts twice — which is
    the comparison Table II makes.
    """
    out: Dict[str, Dict[str, RetrievalScorecard]] = {}
    half = max(BM25_K // 2, 1)
    for field in fields:
        pr_card = RetrievalScorecard()
        pem_card = RetrievalScorecard()
        for question in questions:
            hop1 = ctx.lexical.retrieve_titles(
                question.text, k=BM25_K, field=field
            )
            pr_card.add(
                question.qtype, paragraph_recall(hop1, question.gold_titles)
            )
            retrieved = list(hop1[:half])
            if hop1:
                top_doc = ctx.corpus.by_title(hop1[0])
                expanded = (
                    f"{question.text} "
                    f"{_field_text(ctx, field, top_doc.doc_id)}"
                )
                hop2 = ctx.lexical.retrieve_titles(expanded, k=half, field=field)
                retrieved.extend(hop2)
            pem_card.add(
                question.qtype,
                paragraph_exact_match(retrieved, question.gold_titles),
            )
        out[field] = {"hop1_pr": pr_card, "hop2_pem": pem_card}
    return out


def run_table2(ctx: ExperimentContext):
    """Text matching vs TFS matching with non-learning BM25 (Table II)."""
    fields = ["text", "triples"]
    return {
        "train": _lexical_scorecards(ctx, ctx.train_sample, fields),
        "test": _lexical_scorecards(ctx, ctx.eval_questions, fields),
    }


def run_table3(ctx: ExperimentContext):
    """Constructed TFS vs raw MinIE vs raw StanfordIE fields (Table III)."""
    fields = ["triples", "minie_triples", "stanford_triples"]
    return {
        "train": _lexical_scorecards(ctx, ctx.train_sample, fields),
        "test": _lexical_scorecards(ctx, ctx.eval_questions, fields),
    }


# -- Table IV (one-hop retrieval, learned models) ----------------------------

def _one_hop_scorecard(
    titles_fn, questions: Sequence[HotpotQuestion]
) -> RetrievalScorecard:
    card = RetrievalScorecard()
    for question in questions:
        titles = titles_fn(question.text)
        card.add(question.qtype, paragraph_recall(titles, question.gold_titles))
    return card


def _batched_scorecard(
    questions: Sequence[HotpotQuestion],
    per_question_titles: Sequence[Sequence[str]],
) -> RetrievalScorecard:
    card = RetrievalScorecard()
    for question, titles in zip(questions, per_question_titles):
        card.add(question.qtype, paragraph_recall(titles, question.gold_titles))
    return card


def run_table4(ctx: ExperimentContext) -> Dict[str, RetrievalScorecard]:
    """One-hop PR@8: TPR, GoldEn and Triple-Retriever strategies.

    GoldEn's one-hop retrieval is its BM25 hop 1 over the text field, read
    from ``ctx.lexical`` (each field keeps its own statistics, so this is
    the ranking of a text-only index).

    The Triple-Retriever rows run through the batched fast path: all eval
    questions are encoded in one encoder pass and each strategy's scoring
    is one question×triple matmul.
    """
    questions = ctx.eval_questions
    retriever = ctx.system.retriever
    rows: Dict[str, RetrievalScorecard] = {}

    tprr = ctx.baseline("tprr")
    rows["TPR"] = _one_hop_scorecard(
        lambda q: tprr.retrieve_documents(q, k=K), questions
    )
    rows["GoldEn"] = _one_hop_scorecard(
        lambda q: ctx.lexical.retrieve_titles(q, k=K, field="text"), questions
    )

    strategies = {
        "Triple-Retriever-top2": ScoreStrategy(TOP_K, k=2),
        "Triple-Retriever-top5": ScoreStrategy(TOP_K, k=5),
        "Triple-Retriever-mean": ScoreStrategy(MEAN),
        "Triple-Retriever": ScoreStrategy(ONE_FACT),
    }
    query_matrix = retriever.encode_questions([q.text for q in questions])
    for name, strategy in strategies.items():
        result_lists = retriever.retrieve_batch(
            query_matrix, k=K, strategy=strategy
        )
        rows[name] = _batched_scorecard(
            questions,
            [[r.title for r in results] for results in result_lists],
        )
    return rows


def run_table4_union_ablation(ctx: ExperimentContext) -> RetrievalScorecard:
    """Sec. IV-D note: one-fact retrieval over the raw union set T_o."""
    retriever = SingleRetriever(ctx.system.encoder, ctx.extractor_store("union"))
    retriever.refresh_embeddings()
    return _one_hop_scorecard(
        lambda q: [r.title for r in retriever.retrieve_many([q], k=K)[0]],
        ctx.eval_questions,
    )


# -- Table V (document-path retrieval) ---------------------------------------

def run_table5(ctx: ExperimentContext) -> Dict[str, RetrievalScorecard]:
    """Path PEM@8 for every system (Table V)."""
    questions = ctx.eval_questions
    rows: Dict[str, RetrievalScorecard] = {}

    def score_paths(paths_fn) -> RetrievalScorecard:
        card = RetrievalScorecard()
        for question in questions:
            paths = paths_fn(question.text)
            card.add(
                question.qtype, path_exact_match(paths, question.gold_titles)
            )
        return card

    tprr = ctx.baseline("tprr")
    rows["TPRR"] = score_paths(lambda q: tprr.retrieve_paths(q, k_paths=K))
    hop = ctx.baseline("hop")
    rows["HopRetriever"] = score_paths(lambda q: hop.retrieve_paths(q, k_paths=K))
    mdr = ctx.baseline("mdr")
    rows["MDR"] = score_paths(lambda q: mdr.retrieve_paths(q, k_paths=K))
    path_baseline = ctx.baseline("path")
    rows["PathRetriever"] = score_paths(
        lambda q: path_baseline.retrieve_paths(q, k_paths=K)
    )
    system = ctx.system
    rows["Triple-fact Retrieval-base"] = score_paths(
        lambda q: [
            p.titles
            for p in system.retrieve_paths_many([q], k=K, rerank=False)[0]
        ]
    )
    rows["Triple-fact Retrieval"] = score_paths(
        lambda q: [
            p.titles
            for p in system.retrieve_paths_many([q], k=K, rerank=True)[0]
        ]
    )
    return rows


# -- Wikihop (the paper's second dataset, Sec. IV-A) --------------------------

def run_wikihop(ctx: ExperimentContext, n_queries: int = 80) -> Dict[str, float]:
    """Wikihop-style evaluation of the trained system.

    The paper reports Wikihop alongside HotpotQA without a dedicated
    table; we measure hop-1 PR@k and document-path PEM@k over the
    generated (subject, relation, ?) queries.
    """
    from repro.data.wikihop import build_wikihop_dataset

    wikihop = build_wikihop_dataset(
        ctx.world, ctx.corpus, max_queries=n_queries * 5
    )
    queries = wikihop.validation[:n_queries]
    system = ctx.system
    hop1_hits = 0
    pem_hits = 0
    for query in queries:
        hop1 = system.retriever.retrieve_many([query.text], k=K)[0]
        if any(r.title in query.gold_titles for r in hop1):
            hop1_hits += 1
        paths = system.retrieve_paths_many([query.text], k=K)[0]
        if path_exact_match([p.titles for p in paths], query.gold_titles):
            pem_hits += 1
    n = max(len(queries), 1)
    return {
        "n": float(len(queries)),
        "hop1_pr": hop1_hits / n,
        "path_pem": pem_hits / n,
    }


# -- Ablation A: threshold size l --------------------------------------------

def run_ablation_threshold(
    ctx: ExperimentContext,
    l_values: Sequence[int] = (5, 10, 20, 40),
) -> List[Tuple[int, float, float]]:
    """Sweep Algorithm 1's threshold l: (l, mean |T_d|, BM25-TFS PR@k)."""
    from repro.baselines.lexical import LexicalRetriever

    out = []
    for l_value in l_values:
        store = build_triple_store(
            ctx.corpus, ctx.linker, ConstructionConfig(threshold_size=l_value)
        )
        lexical = LexicalRetriever(ctx.corpus, store=store)
        card = RetrievalScorecard()
        for question in ctx.eval_questions:
            titles = lexical.retrieve_titles(
                question.text, k=BM25_K, field="triples"
            )
            card.add(question.qtype, paragraph_recall(titles, question.gold_titles))
        mean_size = store.total_triples() / max(len(store), 1)
        out.append((l_value, mean_size, card.total))
    return out


# -- Ablation B: HAC O(m^3) vs partition O(m^2) -------------------------------

def _synthetic_triples(m: int, seed: int = 0) -> List[Triple]:
    rng = np.random.RandomState(seed)
    subjects = [f"Entity{i}" for i in range(max(2, m // 6))]
    predicates = ["is", "was", "played for", "won", "founded in"]
    nouns = "club band city award league stadium trophy season".split()
    triples = []
    for _ in range(m):
        subject = subjects[int(rng.randint(len(subjects)))]
        predicate = predicates[int(rng.randint(len(predicates)))]
        length = int(rng.randint(1, 4))
        obj = " ".join(
            nouns[int(rng.randint(len(nouns)))] for _ in range(length)
        )
        triples.append(Triple(subject, predicate, obj))
    return triples


def run_ablation_hac(
    sizes: Sequence[int] = (16, 32, 64, 128),
) -> Dict[str, List[Tuple[int, float]]]:
    """Wall-clock of HAC vs Algorithm 1 over growing union sets.

    Returns {"hac": [(m, seconds)], "partition": [(m, seconds)]}. The
    log-log slope of HAC should exceed the partition method's (O(m^3) vs
    O(m^2)).
    """
    timings: Dict[str, List[Tuple[int, float]]] = {"hac": [], "partition": []}
    constructor = TripleSetConstructor(
        ConstructionConfig(threshold_size=HAC_THRESHOLD)
    )
    for m in sizes:
        triples = _synthetic_triples(m)
        start = time.perf_counter()
        hac_construct(triples, HAC_THRESHOLD)
        timings["hac"].append((m, time.perf_counter() - start))
        start = time.perf_counter()
        constructor.construct(triples)
        timings["partition"].append((m, time.perf_counter() - start))
    return timings


def loglog_slope(points: Sequence[Tuple[int, float]]) -> float:
    """Least-squares slope of log(time) vs log(m)."""
    xs = np.log([m for m, _ in points])
    ys = np.log([max(t, 1e-9) for _, t in points])
    slope, _ = np.polyfit(xs, ys, 1)
    return float(slope)
