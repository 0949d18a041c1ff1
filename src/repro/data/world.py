"""A typed entity/relation knowledge world.

The world is the ground truth everything else is derived from: documents
verbalize its facts, questions query 2-hop chains over it, and gold document
paths come from which documents verbalize which facts.

Entity kinds and relations are modelled on the subject matter HotpotQA
actually draws on (footballers and clubs, bands and members, films and
directors, cities and countries). All randomness flows from one seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

# --------------------------------------------------------------------------
# Schema
# --------------------------------------------------------------------------

#: relation name -> (subject kind, object kind or "literal:<type>")
RELATION_SCHEMA: Dict[str, Tuple[str, str]] = {
    "plays_for": ("person", "club"),
    "member_of": ("person", "band"),
    "born_in": ("person", "city"),
    "educated_at": ("person", "university"),
    "won": ("person", "award"),
    "occupation": ("person", "literal:occupation"),
    "birth_year": ("person", "literal:year"),
    "founded_year": ("club", "literal:year"),
    "based_in": ("club", "city"),
    "league": ("club", "literal:league"),
    "formed_year": ("band", "literal:year"),
    "origin": ("band", "city"),
    "genre": ("band", "literal:genre"),
    "member_count": ("band", "literal:count"),
    "label": ("band", "company"),
    "located_in": ("city", "country"),
    "population": ("city", "literal:population"),
    "city_founded_year": ("city", "literal:year"),
    "headquartered_in": ("company", "city"),
    "industry": ("company", "literal:industry"),
    "company_founded_year": ("company", "literal:year"),
    "directed_by": ("film", "person"),
    "released_year": ("film", "literal:year"),
    "film_genre": ("film", "literal:filmgenre"),
    "univ_located_in": ("university", "city"),
    "established_year": ("university", "literal:year"),
    "award_field": ("award", "literal:field"),
    "capital": ("country", "city"),
}

ENTITY_KINDS = (
    "person",
    "club",
    "band",
    "city",
    "country",
    "company",
    "film",
    "university",
    "award",
)

# Name fragments per kind — combined deterministically by the generator.
_FIRST_NAMES = (
    "Walter Arthur Edgar Harold Clive Gareth Rhys Dylan Marion Edith "
    "Gwen Nora Cecil Stanley Percy Ivor Alun Bryn Carys Megan Idris "
    "Selwyn Trefor Eleri Ffion Aled Rhodri Gwilym Huw Sion Dafydd "
    "Olwen Bronwen Angharad Meredith Talfryn Geraint Emlyn Hywel"
).split()
_SURNAMES = (
    "Davis Morgan Price Hughes Llewellyn Vaughan Griffiths Pritchard "
    "Bowen Jenkins Rees Owain Thomas Powell Meredith Lloyd Beynon "
    "Haverford Kinsey Trevelyan Ashworth Pemberton Winslow Hartley "
    "Colborne Fairfax Stanton Whitmore Aldridge Bancroft Chadwick"
).split()
_PLACE_ROOTS = (
    "Aber Llan Pont Caer Glan Pen Tre Cwm Bryn Nant Dol Maes "
    "Hazel Oak Ash Thorn Mill Stone Fen Marsh Wold Dale"
).split()
_PLACE_SUFFIXES = (
    "ford bridge mouth field stead wick ham ton bury port "
    "dale combe leigh worth minster pool gate"
).split()
_CLUB_SUFFIXES = ("Athletic", "Rovers", "United", "Town", "County", "Wanderers",
                  "Albion", "City", "Rangers", "Corinthians")
_BAND_WORDS = (
    "Velvet Static Crimson Hollow Paper Glass Electric Midnight Neon "
    "Silver Granite Wilder Northern Atomic Lunar Coastal Ember Arcade"
).split()
_BAND_NOUNS = (
    "Foxes Lanterns Harbours Monoliths Sparrows Cascades Orchards "
    "Meridians Pilots Satellites Vespers Corridors Anthems Tides"
).split()
_COMPANY_WORDS = ("Meridian Crestline Harbourview Stonegate Bluepeak Ironwood "
                  "Fairmont Lakeshore Summitline Redgrove Northgate").split()
_COMPANY_SUFFIXES = ("Records", "Holdings", "Industries", "Group", "Media")
_FILM_WORDS = ("The Last The Silent A Distant The Broken The Hidden "
               "Beyond_the After_the The Winter The Glass").split()
_FILM_NOUNS = ("Harvest Lighthouse Orchard Signal Meridian Causeway "
               "Reverie Crossing Archive Furrow Parallel Monsoon").split()
_COUNTRY_NAMES = ("Valdoria Kestrelia Northmark Averland Sundhollow "
                  "Eastvale Morwenna Caldreath Tyrwyn Osmund").split()
_UNI_PATTERN = ("University of {}", "{} Institute of Technology",
                "{} Polytechnic", "{} College")
_AWARD_WORDS = ("Golden Silver Laurel Sterling Meridian National Royal "
                "Continental").split()
_AWARD_NOUNS = ("Boot Quill Baton Lyre Compass Medal Torch Garland").split()
_OCCUPATIONS = ("footballer", "historian", "novelist", "architect",
                "physicist", "journalist", "composer", "sculptor",
                "actor", "engineer")
_LEAGUES = ("Southern League", "Northern Premier League", "Western Combination",
            "Coastal Division", "Midland Alliance")
_GENRES = ("alternative rock", "indie pop", "folk rock", "post punk",
           "electronic", "progressive rock", "jazz fusion")
_FILM_GENRES = ("drama", "thriller", "comedy", "documentary", "western")
_INDUSTRIES = ("music publishing", "shipbuilding", "textiles",
               "telecommunications", "brewing")
_FIELDS = ("literature", "sport", "science", "music", "architecture")


@dataclass(frozen=True)
class Entity:
    """One node in the world: a uniquely named, typed thing."""

    uid: int
    name: str
    kind: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name} ({self.kind})"


@dataclass(frozen=True)
class Fact:
    """One edge: ``subject --relation--> value``.

    ``value`` is an :class:`Entity` for entity-valued relations and a string
    for literal-valued relations.
    """

    subject: Entity
    relation: str
    value: object  # Entity or str

    @property
    def value_text(self) -> str:
        """The value rendered as surface text."""
        return self.value.name if isinstance(self.value, Entity) else str(self.value)

    @property
    def value_entity(self) -> Optional[Entity]:
        """The value as an entity, or None for literal values."""
        return self.value if isinstance(self.value, Entity) else None


@dataclass
class WorldConfig:
    """Size knobs for world generation. Counts are per entity kind."""

    n_persons: int = 80
    n_clubs: int = 25
    n_bands: int = 25
    n_cities: int = 30
    n_countries: int = 6
    n_companies: int = 12
    n_films: int = 20
    n_universities: int = 10
    n_awards: int = 8
    seed: int = 13


class World:
    """The generated knowledge world.

    Attributes
    ----------
    entities:
        All entities, in creation order.
    facts:
        All facts, in creation order.
    """

    def __init__(self, config: Optional[WorldConfig] = None):
        self.config = config or WorldConfig()
        self.entities: List[Entity] = []
        self.facts: List[Fact] = []
        self._by_kind: Dict[str, List[Entity]] = {k: [] for k in ENTITY_KINDS}
        self._by_name: Dict[str, Entity] = {}
        self._facts_by_subject: Dict[int, List[Fact]] = {}
        self._facts_by_relation: Dict[str, List[Fact]] = {}
        self._rng = np.random.RandomState(self.config.seed)
        self._build()

    # -- public accessors -------------------------------------------------
    def entities_of_kind(self, kind: str) -> List[Entity]:
        """All entities of ``kind``."""
        return list(self._by_kind.get(kind, ()))

    def facts_of(self, entity: Entity) -> List[Fact]:
        """Facts whose subject is ``entity``."""
        return list(self._facts_by_subject.get(entity.uid, ()))

    def facts_with_relation(self, relation: str) -> List[Fact]:
        """All facts for one relation name."""
        return list(self._facts_by_relation.get(relation, ()))

    def fact_of(self, entity: Entity, relation: str) -> Optional[Fact]:
        """The (first) fact of ``entity`` with ``relation``, if any."""
        for fact in self._facts_by_subject.get(entity.uid, ()):
            if fact.relation == relation:
                return fact
        return None

    # -- generation --------------------------------------------------------
    def _new_entity(self, name: str, kind: str) -> Entity:
        # Disambiguate duplicate names deterministically (Wikipedia-style).
        base = name
        serial = 2
        while name in self._by_name:
            name = f"{base} ({serial})"
            serial += 1
        entity = Entity(uid=len(self.entities), name=name, kind=kind)
        self.entities.append(entity)
        self._by_kind[kind].append(entity)
        self._by_name[name] = entity
        return entity

    def _add_fact(self, subject: Entity, relation: str, value: object) -> Fact:
        fact = Fact(subject=subject, relation=relation, value=value)
        self.facts.append(fact)
        self._facts_by_subject.setdefault(subject.uid, []).append(fact)
        self._facts_by_relation.setdefault(relation, []).append(fact)
        return fact

    def _choice(self, seq: Sequence) -> object:
        return seq[int(self._rng.randint(len(seq)))]

    def _year(self, lo: int = 1850, hi: int = 1990) -> str:
        return str(int(self._rng.randint(lo, hi)))

    def _build(self) -> None:
        cfg = self.config
        countries = [
            self._new_entity(_COUNTRY_NAMES[i % len(_COUNTRY_NAMES)], "country")
            for i in range(cfg.n_countries)
        ]
        cities = [
            self._new_entity(
                f"{self._choice(_PLACE_ROOTS)}{self._choice(_PLACE_SUFFIXES)}".capitalize(),
                "city",
            )
            for _ in range(cfg.n_cities)
        ]
        for city in cities:
            country = self._choice(countries)
            self._add_fact(city, "located_in", country)
            self._add_fact(
                city, "population", str(int(self._rng.randint(4, 900)) * 1000)
            )
            self._add_fact(city, "city_founded_year", self._year(1000, 1900))
        for country in countries:
            self._add_fact(country, "capital", self._choice(cities))

        clubs = [
            self._new_entity(
                f"{self._choice(cities).name} {self._choice(_CLUB_SUFFIXES)}", "club"
            )
            for _ in range(cfg.n_clubs)
        ]
        for club in clubs:
            self._add_fact(club, "founded_year", self._year(1860, 1950))
            self._add_fact(club, "based_in", self._choice(cities))
            self._add_fact(club, "league", self._choice(_LEAGUES))

        companies = [
            self._new_entity(
                f"{self._choice(_COMPANY_WORDS)} {self._choice(_COMPANY_SUFFIXES)}",
                "company",
            )
            for _ in range(cfg.n_companies)
        ]
        for company in companies:
            self._add_fact(company, "headquartered_in", self._choice(cities))
            self._add_fact(company, "industry", self._choice(_INDUSTRIES))
            self._add_fact(company, "company_founded_year", self._year(1880, 1990))

        bands = [
            self._new_entity(
                f"{self._choice(_BAND_WORDS)} {self._choice(_BAND_NOUNS)}", "band"
            )
            for _ in range(cfg.n_bands)
        ]
        for band in bands:
            self._add_fact(band, "formed_year", self._year(1960, 2015))
            self._add_fact(band, "origin", self._choice(cities))
            self._add_fact(band, "genre", self._choice(_GENRES))
            self._add_fact(band, "member_count", str(int(self._rng.randint(2, 7))))
            self._add_fact(band, "label", self._choice(companies))

        universities = [
            self._new_entity(
                self._choice(_UNI_PATTERN).format(self._choice(cities).name),
                "university",
            )
            for _ in range(cfg.n_universities)
        ]
        for univ in universities:
            self._add_fact(univ, "univ_located_in", self._choice(cities))
            self._add_fact(univ, "established_year", self._year(1400, 1970))

        awards = [
            self._new_entity(
                f"{self._choice(_AWARD_WORDS)} {self._choice(_AWARD_NOUNS)}", "award"
            )
            for _ in range(cfg.n_awards)
        ]
        for award in awards:
            self._add_fact(award, "award_field", self._choice(_FIELDS))

        persons = [
            self._new_entity(
                f"{self._choice(_FIRST_NAMES)} {self._choice(_FIRST_NAMES)} "
                f"{self._choice(_SURNAMES)}",
                "person",
            )
            for _ in range(cfg.n_persons)
        ]
        for person in persons:
            self._add_fact(person, "occupation", self._choice(_OCCUPATIONS))
            self._add_fact(person, "birth_year", self._year(1870, 1995))
            self._add_fact(person, "born_in", self._choice(cities))
            # roughly half are footballers-with-clubs, half band members
            if self._rng.rand() < 0.5:
                self._add_fact(person, "plays_for", self._choice(clubs))
            else:
                self._add_fact(person, "member_of", self._choice(bands))
            if self._rng.rand() < 0.35:
                self._add_fact(person, "educated_at", self._choice(universities))
            if self._rng.rand() < 0.3:
                self._add_fact(person, "won", self._choice(awards))

        films = [
            self._new_entity(
                f"{str(self._choice(_FILM_WORDS)).replace('_', ' ')} "
                f"{self._choice(_FILM_NOUNS)}",
                "film",
            )
            for _ in range(cfg.n_films)
        ]
        for film in films:
            self._add_fact(film, "directed_by", self._choice(persons))
            self._add_fact(film, "released_year", self._year(1930, 2020))
            self._add_fact(film, "film_genre", self._choice(_FILM_GENRES))
