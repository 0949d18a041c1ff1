"""The triple-fact question updater (paper Sec. III-C, Fig. 5).

After hop *i*, one triple fact of the retrieved document is selected as
the *updater-clue* and appended to the question (with de-duplication) to
form the next-hop query — an O(|T_d|) search instead of the O(2^a)
token-span space.

* :mod:`repro.updater.golden` — GoldEn-style heuristic ground data
  (the paper trains its updater on GoldEn's query-generator supervision),
* :mod:`repro.updater.question` — updated-question composition,
* :mod:`repro.updater.updater` — the learned clue selector.
"""

from repro.updater.golden import (
    ground_clue_index,
    golden_expansion_terms,
)
from repro.updater.question import compose_updated_question
from repro.updater.updater import QuestionUpdater, UpdaterConfig, UpdaterTrainer

__all__ = [
    "ground_clue_index",
    "golden_expansion_terms",
    "compose_updated_question",
    "QuestionUpdater",
    "UpdaterConfig",
    "UpdaterTrainer",
]
