"""Per-table experiment runners (DESIGN.md experiment index).

Each function reproduces one table/figure of the paper's Sec. IV over the
synthetic corpus, returning structured rows; the benchmarks print them and
assert the paper's qualitative *shape*.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.baselines import dense_base, path_retriever
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
from repro.retriever.store import TripleStore, build_triple_store
from repro.retriever.strategies import MEAN, ONE_FACT, TOP_K, ScoreStrategy
from repro.triples.construct import ConstructionConfig, TripleSetConstructor
from repro.triples.hac import hac_construct
from repro.updater.golden import ground_clue_index

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

def _recall_card(
    questions: Sequence[HotpotQuestion], title_lists: Iterable[Sequence[str]]
) -> RetrievalScorecard:
    """PR per question over its ranked titles (read as the lists arrive)."""
    card = RetrievalScorecard()
    for question, titles in zip(questions, title_lists):
        hit = paragraph_recall(titles, question.gold_titles)
        card.add(question.qtype, hit, titles)
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
    rows["TPR"] = _recall_card(
        questions, (tprr.retrieve_documents(q.text, k=K) for q in questions)
    )
    bm25 = ctx.lexical.retrieve_titles
    rows["GoldEn"] = _recall_card(
        questions, (bm25(q.text, k=K, field="text") for q in questions)
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
        rows[name] = _recall_card(
            questions, ([r.title for r in results] for results in result_lists)
        )
    return rows


def run_table4_union_ablation(ctx: ExperimentContext) -> RetrievalScorecard:
    """Sec. IV-D note: one-fact retrieval over the raw union set T_o."""
    retriever = SingleRetriever(ctx.system.encoder, ctx.extractor_store("union"))
    retriever.refresh_embeddings()
    questions = ctx.eval_questions
    return _recall_card(questions, (
        [r.title for r in retriever.retrieve_many([q.text], k=K)[0]]
        for q in questions
    ))


# -- Table V (document-path retrieval) ---------------------------------------

#: Table V's baselines: row name, ``ctx.baseline`` name and the length of
#: the whole candidate list (hop-1 beam × hop-2 width)
DENSE_WIDTH = dense_base.K_HOP1 * dense_base.K_HOP2
TABLE5_BASELINES = (
    ("TPRR", "tprr", DENSE_WIDTH),
    ("HopRetriever", "hop", DENSE_WIDTH),
    ("MDR", "mdr", DENSE_WIDTH),
    ("PathRetriever", "path", path_retriever.N_SEEDS * path_retriever.BEAM),
)


def _clue_failure(ctx: ExperimentContext, question, candidates) -> str:
    """``clue:<r>`` when the clue picked for a bridge question's gold doc 1
    is not ``ground_clue_index``'s, which ranks ``r``th under
    ``score_triples``; "" when it is, or when doc 1 heads no candidate."""
    if not question.is_bridge or len(question.gold_titles) < 2:
        return ""
    doc1, doc2 = (ctx.corpus.by_title(t) for t in question.gold_titles[:2])
    picked = [p.clue for p in candidates if p.doc_ids[0] == doc1.doc_id]
    triples = ctx.system.store.triples(doc1.doc_id)
    gold = ground_clue_index(triples, doc2)
    if not picked or gold is None or picked[0] == triples[gold]:
        return ""
    scores = ctx.system.updater.score_triples(question.text, triples)
    order = np.argsort(-scores, kind="stable")
    return f"clue:{int(np.flatnonzero(order == gold)[0]) + 1}"


def _add_paths(card, question, top, candidates, clue: str = "") -> None:
    """PEM over the row's ``top`` paths; a miss records the first stage
    that lost it within the whole candidate list: ``hop1`` (no gold
    document heads a candidate), the ``clue`` (:func:`_clue_failure`),
    ``hop2`` (no candidate covers the gold set) or ``rank`` (one does,
    below the row's top)."""
    gold = set(question.gold_titles)
    hit = path_exact_match(top, gold)
    if hit or not any(path[0] in gold for path in candidates):
        stage = "" if hit else "hop1"
    else:
        stage = clue or ("rank" if path_exact_match(candidates, gold) else "hop2")
    card.add(question.qtype, hit, top, stage)


def run_table5(ctx: ExperimentContext) -> Dict[str, RetrievalScorecard]:
    """Path PEM@8 for every system (Table V), and where each miss was lost.

    Each system answers each question once with its whole candidate list;
    its row reads the top 8. Both Triple-fact rows read one multi-hop call:
    the base row its first 8 candidates (Eq. 8), the full row the ranker's
    top 8 of all of them, as ``retrieve_paths_many`` reranks. One question
    per call: batch composition moves scores by ~1e-16 and can reorder ties.
    """
    questions = ctx.eval_questions
    rows: Dict[str, RetrievalScorecard] = {}
    for row, name, width in TABLE5_BASELINES:
        baseline = ctx.baseline(name)
        card = rows[row] = RetrievalScorecard()
        for question in questions:
            candidates = baseline.retrieve_paths(question.text, k_paths=width)
            _add_paths(card, question, candidates[:K], candidates)
    system = ctx.system
    config = system.multihop.config
    base = rows["Triple-fact Retrieval-base"] = RetrievalScorecard()
    full = rows["Triple-fact Retrieval"] = RetrievalScorecard()
    for question in questions:
        candidates = system.multihop.retrieve_paths_batch(
            [question.text], k_paths=config.k_hop1 * config.k_hop2
        )[0]
        reranked = system.ranker.rerank(question.text, candidates, k=K)
        titles = [p.titles for p in candidates]
        clue = _clue_failure(ctx, question, candidates)
        _add_paths(base, question, titles[:K], titles, clue)
        _add_paths(full, question, [p.titles for p in reranked], titles, clue)
    return rows


# -- Wikihop (the paper's second dataset, Sec. IV-A) --------------------------

def run_wikihop(ctx: ExperimentContext) -> Dict[str, RetrievalScorecard]:
    """Wikihop-style evaluation of the trained system.

    The paper reports Wikihop alongside HotpotQA without a dedicated
    table; we measure hop-1 PR@k and document-path PEM@k over the
    generated (subject, relation, ?) queries.
    """
    system = ctx.system
    cards = {"hop1_pr": RetrievalScorecard(), "path_pem": RetrievalScorecard()}
    for query in ctx.wikihop_queries:
        hop1 = system.retriever.retrieve_many([query.text], k=K)[0]
        titles = [r.title for r in hop1]
        found = system.retrieve_paths_many([query.text], k=K)[0]
        paths = [p.titles for p in found]
        cards["hop1_pr"].add(
            "wikihop", paragraph_recall(titles, query.gold_titles), titles
        )
        cards["path_pem"].add(
            "wikihop", path_exact_match(paths, query.gold_titles), paths
        )
    return cards


# -- Ablation A: threshold size l --------------------------------------------

def run_ablation_threshold(
    ctx: ExperimentContext,
    l_values: Sequence[int] = (3, 5, 10, 20, 40),
) -> List[Tuple[int, TripleStore, RetrievalScorecard]]:
    """Sweep Algorithm 1's threshold l: (l, its store, BM25-TFS PR@k)."""
    from repro.baselines.lexical import LexicalRetriever

    out = []
    for l_value in l_values:
        store = build_triple_store(
            ctx.corpus, ctx.linker, ConstructionConfig(threshold_size=l_value)
        )
        lexical = LexicalRetriever(ctx.corpus, store=store)
        card = _recall_card(
            ctx.eval_questions,
            (
                lexical.retrieve_titles(q.text, k=BM25_K, field="triples")
                for q in ctx.eval_questions
            ),
        )
        out.append((l_value, store, card))
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
