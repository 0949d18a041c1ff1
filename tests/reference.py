"""Test-side reference implementations the retrieval suites compare against.

Nothing here is imported by ``src/``: these are the slow, obviously
correct forms of the paper's ranking (max-cosine over a document's triple
facts, Eqs. 2-4) kept so the one search core has independent oracles —
the scalar per-document loop the vectorized scorer replaced, a
brute-force numpy ranking that never touches a ``ShardPlan``, and the
autograd-graph encoder path the fused inference kernels replaced — plus
the match-by-match tokeniser the one-regex-pass ``tokenize`` replaced
and the triple-by-triple clue features the beam-wide updater replaced.
Also the bodies every reader of the triple file has to refuse
(:func:`unreadable_triple_files`), shared by the three readers' suites,
and the gradient-tracking leaf tensor the autograd suites build
(:func:`leaf`).
"""

import numpy as np

from repro.nn.tensor import Tensor
from repro.retriever.single import RetrievedDocument
from repro.retriever.strategies import (
    MEAN,
    ONE_FACT,
    TOP_K,
    ScoreStrategy,
    l2_normalize_rows,
)
from repro.text.tokenize import _APOSTROPHE_SUFFIXES, _TOKEN_RE


def leaf(data):
    """A tensor that accumulates gradients, as a registered parameter does."""
    tensor = Tensor(data)
    tensor.requires_grad = True
    return tensor


def unreadable_triple_files(good):
    """name -> body no reader may take for a triple store.

    ``good`` is a saved store of at least two documents. Every body must
    raise ``TripleStoreError`` from ``TripleStore.load`` itself; a file
    whose fault shows only once a segment is parsed is not in here.
    """
    lines = good.split(b"\n")  # header, segments..., b""
    header = lines[0].split(b"\t")

    def rebuilt(fields, segments):
        return b"\n".join([b"\t".join(fields), *segments, b""])

    one_more = [*header[:3], b"%d" % (len(lines) - 1)]
    return {
        "empty": b"",
        "list": b"[]",
        "null": b"null",
        "string-for-rows": b'{"0": "x"}',
        "list-for-triple": b'{"0": [[1]]}',
        "version-1": (
            b'{"0": [{"s": "a", "p": "b", "o": "c", "x": [], '
            b'"src": "", "i": 0, "c": 1.0}]}'
        ),
        "other-version": rebuilt([header[0], b"3", *header[2:]], lines[1:-1]),
        "truncated-last-line": good[:-20],
        "truncated-at-a-line": rebuilt(header, lines[1:-2]),
        "duplicated-doc-id": rebuilt(one_more, [*lines[1:-1], lines[-2]]),
        "short-segment": rebuilt(one_more, [*lines[1:-1], b"7\tabc\tdef"]),
        "count-not-a-number": rebuilt(
            header, [*lines[1:-2], lines[-2].replace(b"\t", b"\tx", 3)]
        ),
    }


#: the names alone, to parametrise over
UNREADABLE_TRIPLE_FILES = tuple(unreadable_triple_files(b"\n\n"))


def tokenize_reference(text):
    """``tokenize`` match by match, trying every clitic on every token."""
    text = text.lower()
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        token = match.group(0)
        for suffix in _APOSTROPHE_SUFFIXES:
            if token.endswith(suffix) and len(token) > len(suffix):
                tokens.append(token[: -len(suffix)])
                tokens.append(suffix)
                break
        else:
            tokens.append(token)
    return tokens


def aggregate(strategy, scores):
    """Collapse one document's per-triple scores into its score."""
    if scores.size == 0:
        return -1.0  # cosine lower bound: a document with no triples
    if strategy.name == ONE_FACT:
        return float(scores.max())
    if strategy.name == TOP_K:
        k = min(strategy.k, scores.size)
        top = np.partition(scores, -k)[-k:]
        return float(top.mean())
    if strategy.name == MEAN:
        return float(scores.mean())
    raise ValueError(f"unknown strategy {strategy.name!r}")


def matched_index(scores):
    """Index of the explaining triple (argmax); -1 without triples."""
    if scores.size == 0:
        return -1
    return int(scores.argmax())


def cosine_matrix(query_vec, triple_matrix, eps=1e-8):
    """Cosine of one query vector against rows of ``triple_matrix``."""
    if triple_matrix.size == 0:
        return np.zeros(0)
    q_norm = np.linalg.norm(query_vec) + eps
    t_norms = np.linalg.norm(triple_matrix, axis=1) + eps
    return (triple_matrix @ query_vec) / (t_norms * q_norm)


def score_documents(query_vec, doc_triple_matrices, strategy):
    """Score every document by its aggregated triple-fact similarity."""
    return {
        doc_id: aggregate(strategy, cosine_matrix(query_vec, matrix))
        for doc_id, matrix in doc_triple_matrices.items()
    }


def retrieve_by_vector_legacy(
    retriever, query_vec, k=10, strategy=None, keep_triple_scores=False
):
    """Document-by-document reference scorer (the pre-vectorization loop)."""
    strategy = strategy or ScoreStrategy()
    store = retriever.store
    results = []
    for doc_id in store.doc_ids():
        scores = cosine_matrix(query_vec, retriever.doc_embeddings(doc_id))
        hit = matched_index(scores)
        results.append(
            RetrievedDocument(
                doc_id=doc_id,
                title=store.corpus[doc_id].title,
                score=aggregate(strategy, scores),
                matched_triple=store.triples(doc_id)[hit] if hit >= 0 else None,
                triple_scores=scores if keep_triple_scores else None,
            )
        )
    results.sort(key=lambda r: (-r.score, r.doc_id))
    return results[: max(k, 0)]


def brute_force_rank(retriever, query_matrix, k, strategy):
    """Per query ``[(doc_id, score, matched_local, triple_scores)]``:
    ``Q @ T.T`` over the whole exported matrix, the scalar :func:`aggregate`
    / :func:`matched_index` per document, then a full ``(-score, doc_id)``
    sort — no shards, no partial selection, no ``src`` aggregation."""
    exported = retriever.export_embeddings()
    doc_ids = exported.doc_ids
    offsets = np.asarray(exported.offsets, dtype=np.int64)
    stops = np.append(offsets[1:], exported.matrix.shape[0])
    flat = l2_normalize_rows(np.atleast_2d(query_matrix)) @ l2_normalize_rows(
        np.asarray(exported.matrix)
    ).T
    ranked = []
    for row in flat:
        # the scalar reference, document by document, on float64 copies
        # (what the system accumulates in): no aggregation code shared
        segments = [
            np.asarray(row[start:stop], dtype=np.float64)
            for start, stop in zip(offsets, stops)
        ]
        scores = [aggregate(strategy, segment) for segment in segments]
        matched = [matched_index(segment) for segment in segments]
        order = sorted(
            range(len(doc_ids)), key=lambda i: (-scores[i], doc_ids[i])
        )[: max(k, 0)]
        ranked.append(
            [
                (
                    doc_ids[i],
                    float(scores[i]),
                    int(matched[i]),
                    row[offsets[i] : stops[i]],
                )
                for i in order
            ]
        )
    return ranked


def clue_features_reference(encoder, question, triples, cosines=None):
    """(n, 4) clue features, triple by triple: the loop the question
    updater scored candidates with before it scored a whole beam at once.

    [idf-weighted novelty fraction, novel capitalized words,
    cos(enc(t), enc(q)), normalized triple length]. Without ``cosines``
    the question and the triples are encoded and compared here.
    """
    vocab = encoder.vocab
    weights = encoder._token_weights
    question_tokens = set(tokenize_reference(question))
    if cosines is None:
        cosines = cosine_matrix(
            encoder.encode_numpy([question])[0],
            encoder.encode_numpy([t.flatten() for t in triples]),
        )
    rows = []
    for i, triple in enumerate(triples):
        tokens = tokenize_reference(triple.flatten())
        total_idf = sum(weights[vocab.id_of(t)] for t in tokens) or 1.0
        novel_idf = sum(
            weights[vocab.id_of(t)]
            for t in tokens
            if t not in question_tokens
        )
        novel_caps = sum(
            1
            for word in triple.flatten().split()
            if word[:1].isupper() and word.lower() not in question_tokens
        )
        rows.append(
            [
                novel_idf / total_idf,
                min(novel_caps, 5) / 5.0,
                float(cosines[i]),
                min(len(tokens), 30) / 30.0,
            ]
        )
    return np.asarray(rows)


def clue_scores_reference(updater, question, triples, cosines=None):
    """The head over :func:`clue_features_reference`, row by row: the
    weighted features summed left to right, then the bias."""
    weights = updater.head.weight.data[:, 0]
    bias = float(updater.head.bias.data[0])
    scores = []
    for row in clue_features_reference(
        updater.encoder, question, triples, cosines
    ):
        total = row[0] * weights[0]
        for feature, weight in zip(row[1:], weights[1:]):
            total += feature * weight
        scores.append(total + bias)
    return np.asarray(scores, dtype=np.float64)


def encode_numpy_graph(encoder, texts, batch_size=64):
    """The autograd-graph reference for ``MiniBertEncoder.encode_numpy``.

    Computes in the training dtype through the public ``encoder.encode``
    (fixed-order chunks, no length bucketing) and casts to the precision
    dtype at the boundary — what ``encode_numpy`` did before the fused
    engine.
    """
    dtype = encoder.precision.dtype
    chunks = [
        np.asarray(
            encoder.encode(texts[start : start + batch_size]).numpy(),
            dtype=dtype,
        )
        for start in range(0, len(texts), batch_size)
    ]
    if not chunks:
        return np.zeros((0, encoder.config.dim), dtype=dtype)
    return np.concatenate(chunks, axis=0)
