"""MDR baseline (Xiong et al. 2020): recursive dense retrieval.

MDR iteratively encodes "the question and hop-i retrieved document as a
query vector" and retrieves hop i+1 with maximum inner-product search. Its
question update is full-text concatenation — exactly the noisy updater the
paper criticizes (Sec. III-C): on bridge questions the hop-1 document's
text drowns the question, which is why MDR's bridge PEM collapses in
Table V while its comparison PEM stays high (comparison hop 2 matches the
original question tokens anyway).
"""

from __future__ import annotations

from repro.baselines.dense_base import DenseRetriever


class MDRRetriever(DenseRetriever):
    """Recursive dense retrieval with concatenation question update."""

    def hop2_query(self, question: str, doc_id: int) -> str:
        """MDR's update: full hop-1 text appended to the question.

        Unlike TPRR we do not truncate aggressively — the point of the
        baseline is that the concatenated document dominates the encoding.
        """
        return f"{question} {self.corpus[doc_id].text}"
