"""In-process inverted-index search engine (Elasticsearch stand-in).

The paper indexes 5M Wikipedia documents and their triple-fact sets with
Elasticsearch 7.13 and uses it only as a BM25 store. This subpackage
provides the same capability in-process: one analyzer chain, multi-field
inverted indexes scored by BM25, and an entity index used for entity
linking.
"""

from repro.index.postings import Field, Posting
from repro.index.inverted import InvertedIndex, SearchHit
from repro.index.entity_index import EntityIndex

__all__ = [
    "Field",
    "Posting",
    "InvertedIndex",
    "SearchHit",
    "EntityIndex",
]
