"""HotpotQA-style two-hop question generation.

Two question types, as in the paper (Sec. IV-A):

* **Bridge** — a chain ``anchor --r1--> bridge --r2--> answer``. The
  question describes the bridge entity only through its link to the anchor
  ("the football club that Walter Otto Davis played for"), so hop 2 cannot
  be retrieved without first reading the anchor's document. Gold path:
  ``[doc(anchor), doc(bridge)]``.
* **Comparison** — two same-kind entities compared on one property
  ("Did LostAlone and Guster have the same number of members?"). Gold path:
  ``[doc(a), doc(b)]``, retrievable simultaneously.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data import templates as T
from repro.data.corpus import Corpus
from repro.data.world import Entity, Fact, World

BRIDGE = "bridge"
COMPARISON = "comparison"

#: (first-hop relation, second-hop relation) chains that compose into a
#: well-formed bridge question (both sides have templates and the bridge
#: kind matches).
CHAIN_PAIRS: Tuple[Tuple[str, str], ...] = (
    ("plays_for", "founded_year"),
    ("plays_for", "based_in"),
    ("plays_for", "league"),
    ("member_of", "formed_year"),
    ("member_of", "origin"),
    ("member_of", "genre"),
    ("member_of", "member_count"),
    ("member_of", "label"),
    ("educated_at", "established_year"),
    ("educated_at", "univ_located_in"),
    ("won", "award_field"),
    ("born_in", "located_in"),
    ("born_in", "population"),
    ("based_in", "located_in"),
    ("based_in", "population"),
    ("origin", "located_in"),
    ("origin", "population"),
    ("label", "headquartered_in"),
    ("label", "industry"),
)

#: relations usable for comparison questions, by entity kind.
COMPARISON_RELATIONS: Dict[str, Tuple[str, ...]] = {
    "band": ("member_count", "formed_year", "genre"),
    "club": ("founded_year", "league"),
    "person": ("birth_year", "occupation"),
    "film": ("released_year",),
    "city": ("population",),
}

#: comparison relations whose question asks "which one" rather than yes/no.
_ORDINAL_RELATIONS = {"formed_year", "founded_year", "birth_year",
                      "released_year", "population"}


@dataclass
class HotpotQuestion:
    """One generated multi-hop question with gold supervision."""

    qid: int
    text: str
    qtype: str  # BRIDGE or COMPARISON
    gold_titles: List[str]  # ordered document path (hop 1 first)
    answer: str

    @property
    def is_bridge(self) -> bool:
        return self.qtype == BRIDGE


@dataclass
class HotpotDataset:
    """Train/test splits of generated questions over one corpus."""

    corpus: Corpus
    train: List[HotpotQuestion] = field(default_factory=list)
    test: List[HotpotQuestion] = field(default_factory=list)

    @property
    def all_questions(self) -> List[HotpotQuestion]:
        return self.train + self.test

    def statistics(self) -> Dict[str, Dict[str, int]]:
        """Table-I-style statistics: bridge/comparison counts per split."""
        stats: Dict[str, Dict[str, int]] = {}
        for name, questions in (("train", self.train), ("test", self.test)):
            bridge = sum(1 for q in questions if q.qtype == BRIDGE)
            stats[name] = {
                "bridge": bridge,
                "comparison": len(questions) - bridge,
                "total": len(questions),
            }
        return stats


def _pick(rng: np.random.RandomState, seq: Sequence):
    return seq[int(rng.randint(len(seq)))]


def _anchor_reference(
    anchor: Entity,
    world: World,
    rng: np.random.RandomState,
    descriptive_prob: float,
    partial_name_prob: float,
) -> str:
    """How the question refers to the anchor entity.

    Mirrors real HotpotQA phrasing: usually the full name, sometimes a
    shortened name, and sometimes a *descriptive* reference ("the novelist
    born in 1943") that shares no tokens with the title — the case where
    lexical matching struggles and semantic matching pays off. Descriptive
    references are only used when unambiguous in the world.
    """
    roll = rng.rand()
    if anchor.kind == "person" and roll < descriptive_prob:
        occupation = world.fact_of(anchor, "occupation")
        born_in = world.fact_of(anchor, "born_in")
        if occupation is not None and born_in is not None:
            same = [
                fact.subject
                for fact in world.facts_with_relation("occupation")
                if fact.value_text == occupation.value_text
            ]
            collisions = [
                person
                for person in same
                if person.uid != anchor.uid
                and (world.fact_of(person, "born_in") or fact_none).value_text
                == born_in.value_text
            ]
            if not collisions:
                noun = occupation.value_text
                # half the descriptive references use a synonym the corpus
                # never contains — the pure-semantic matching case; the
                # birthplace city is shared by many documents, so lexical
                # matching alone cannot pinpoint the anchor
                if rng.rand() < 0.5:
                    noun = T.OCCUPATION_SYNONYMS.get(noun, noun)
                return f"the {noun} from {born_in.value_text}"
    parts = anchor.name.split()
    if len(parts) >= 3 and roll < descriptive_prob + partial_name_prob:
        return f"{parts[0]} {parts[-1]}"  # drop middle names
    return anchor.name


class _FactNone:
    """Sentinel with a value_text that never collides."""

    value_text = object()


fact_none = _FactNone()


def _bridge_questions(
    world: World,
    rng: np.random.RandomState,
    start_qid: int,
    descriptive_prob: float = 0.3,
    partial_name_prob: float = 0.2,
) -> List[HotpotQuestion]:
    questions: List[HotpotQuestion] = []
    qid = start_qid
    chain_index: Dict[str, List[Fact]] = {}
    for r1, _ in CHAIN_PAIRS:
        if r1 not in chain_index:
            chain_index[r1] = world.facts_with_relation(r1)
    for r1, r2 in CHAIN_PAIRS:
        for hop1_fact in chain_index[r1]:
            bridge = hop1_fact.value_entity
            if bridge is None:
                continue
            hop2_fact = world.fact_of(bridge, r2)
            if hop2_fact is None:
                continue
            desc_template = _pick(rng, T.BRIDGE_DESC_TEMPLATES[r1])
            question_template = _pick(rng, T.BRIDGE_QUESTION_TEMPLATES[r2])
            reference = _anchor_reference(
                hop1_fact.subject, world, rng, descriptive_prob, partial_name_prob
            )
            desc = desc_template.format(s=reference)
            text = question_template.format(desc=desc)
            questions.append(
                HotpotQuestion(
                    qid=qid,
                    text=text,
                    qtype=BRIDGE,
                    gold_titles=[hop1_fact.subject.name, bridge.name],
                    answer=hop2_fact.value_text,
                )
            )
            qid += 1
    return questions


def _comparison_answer(relation: str, a: Fact, b: Fact, template: str) -> str:
    """Gold answer for one comparison question.

    Ordinal templates phrased as "Which ... ?" are answered with the
    winning entity's name; yes/no phrasings ("Was A ... before B?") with
    yes/no; equality templates with yes/no on value equality.
    """
    if relation in _ORDINAL_RELATIONS:
        va, vb = a.value_text, b.value_text
        try:
            fa, fb = float(va), float(vb)
        except ValueError:  # pragma: no cover - literals are numeric
            return a.subject.name
        if relation == "population":
            a_wins = fa >= fb
        else:
            a_wins = fa <= fb
        if template.split()[0].lower() in ("was", "were", "did", "do", "does", "is", "are"):
            return "yes" if a_wins else "no"
        return a.subject.name if a_wins else b.subject.name
    return "yes" if a.value_text == b.value_text else "no"


def _comparison_questions(
    world: World,
    rng: np.random.RandomState,
    start_qid: int,
    per_kind: int,
) -> List[HotpotQuestion]:
    questions: List[HotpotQuestion] = []
    qid = start_qid
    for kind, relations in COMPARISON_RELATIONS.items():
        entities = world.entities_of_kind(kind)
        if len(entities) < 2:
            continue
        made = 0
        attempts = 0
        seen_pairs = set()
        while made < per_kind and attempts < per_kind * 20:
            attempts += 1
            a = _pick(rng, entities)
            b = _pick(rng, entities)
            if a.uid == b.uid:
                continue
            relation = _pick(rng, relations)
            key = (min(a.uid, b.uid), max(a.uid, b.uid), relation)
            if key in seen_pairs:
                continue
            fa, fb = world.fact_of(a, relation), world.fact_of(b, relation)
            if fa is None or fb is None:
                continue
            if relation not in T.COMPARISON_QUESTION_TEMPLATES:
                continue
            seen_pairs.add(key)
            template = _pick(rng, T.COMPARISON_QUESTION_TEMPLATES[relation])
            questions.append(
                HotpotQuestion(
                    qid=qid,
                    text=template.format(a=a.name, b=b.name),
                    qtype=COMPARISON,
                    gold_titles=[a.name, b.name],
                    answer=_comparison_answer(relation, fa, fb, template),
                )
            )
            qid += 1
            made += 1
    return questions


#: the share of questions held out as the test split
TEST_FRACTION = 0.2


def build_hotpot_dataset(
    world: World,
    corpus: Corpus,
    comparison_per_kind: int = 20,
    descriptive_prob: float = 0.3,
    partial_name_prob: float = 0.2,
) -> HotpotDataset:
    """Generate the HotpotQA-style dataset for ``world`` / ``corpus``.

    Bridge questions are generated exhaustively over all valid 2-hop chains;
    comparison questions are sampled (``comparison_per_kind`` per entity
    kind), giving the bridge-heavy mix of the real dataset (Table I:
    ~80% bridge). Split into train/test with ``TEST_FRACTION``.
    """
    rng = np.random.RandomState(world.config.seed + 101)
    questions = _bridge_questions(
        world,
        rng,
        start_qid=0,
        descriptive_prob=descriptive_prob,
        partial_name_prob=partial_name_prob,
    )
    questions += _comparison_questions(
        world, rng, start_qid=len(questions), per_kind=comparison_per_kind
    )
    order = rng.permutation(len(questions))
    questions = [questions[i] for i in order]
    n_test = int(round(len(questions) * TEST_FRACTION))
    dataset = HotpotDataset(
        corpus=corpus, train=questions[n_test:], test=questions[:n_test]
    )
    return dataset
