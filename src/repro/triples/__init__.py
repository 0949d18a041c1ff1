"""Triple-fact set construction — the paper's Algorithm 1 and its baseline.

Turns the noisy, redundant union extraction ``T_o`` into a
*complete-minimized* triple fact set ``T_d``:

* :mod:`repro.triples.relatedness` — Eq. 1 noise pruning,
* :mod:`repro.triples.canopy` — subject / subject-predicate canopies,
* :mod:`repro.triples.setcover` — mother-child detection + greedy cover,
* :mod:`repro.triples.sibling` — sibling detection and fusion,
* :mod:`repro.triples.construct` — the full partition-based O(m^2)
  Algorithm 1,
* :mod:`repro.triples.hac` — the O(m^3) hierarchical agglomerative
  clustering baseline the paper improves on.
"""

from repro.triples.relatedness import relatedness, prune_noise
from repro.triples.canopy import build_canopies, Canopy
from repro.triples.setcover import find_mother_child_pairs, greedy_cover
from repro.triples.sibling import sibling_similarity, find_sibling_pairs, fuse_siblings
from repro.triples.construct import TripleSetConstructor, ConstructionConfig
from repro.triples.hac import hac_construct, hac_cluster

__all__ = [
    "relatedness",
    "prune_noise",
    "build_canopies",
    "Canopy",
    "find_mother_child_pairs",
    "greedy_cover",
    "sibling_similarity",
    "find_sibling_pairs",
    "fuse_siblings",
    "TripleSetConstructor",
    "ConstructionConfig",
    "hac_construct",
    "hac_cluster",
]
