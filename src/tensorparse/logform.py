"""Logical-form AST, candidate generation, and canonical utterances.

Three templates are generated from entity spans linked in the query, each
with the canonical utterance that generation renders beside it:

    T1  join(r, ent(e))            "the R of E"
    T2  rev(r, ent(e))             "the things whose R is E"
    T3  join(r, and(rev(r1, ent(e1)),
                    rev(r2, ent(e2))))
                                   "the R of the thing whose R1 is E1
                                    and whose R2 is E2"

R is a relation's phrase and E an entity's name.  Entities are linked by
spans up to the graph's longest alias, so every catalog alias can link.
T3 pairs a relation into e1 with one into e2 that shares a subject, so no
empty inner intersection is built.  Generation is deterministic: output
is sorted by serialized form and truncated to the configured cap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Union

from . import ConfigError, kgraph
from .features import tokenize


@dataclass(frozen=True)
class EntityLit:
    entity_id: str


@dataclass(frozen=True)
class Join:
    relation_id: str
    sub: "LogicalForm"


@dataclass(frozen=True)
class ReverseJoin:
    relation_id: str
    sub: "LogicalForm"


@dataclass(frozen=True)
class Intersect:
    left: "LogicalForm"
    right: "LogicalForm"


LogicalForm = Union[EntityLit, Join, ReverseJoin, Intersect]


@dataclass(frozen=True)
class Candidate:
    logical_form: LogicalForm
    utterance_tokens: tuple[str, ...]
    denotation: frozenset


@dataclass(frozen=True)
class GenConfig:
    max_candidates: int = 200

    def __post_init__(self):
        if self.max_candidates < 1:
            raise ConfigError("max_candidates must be >= 1")


def serialize(lf: LogicalForm) -> str:
    if isinstance(lf, EntityLit):
        return f"ent({lf.entity_id})"
    if isinstance(lf, Join):
        return f"join({lf.relation_id}, {serialize(lf.sub)})"
    if isinstance(lf, ReverseJoin):
        return f"rev({lf.relation_id}, {serialize(lf.sub)})"
    if isinstance(lf, Intersect):
        return f"and({serialize(lf.left)}, {serialize(lf.right)})"
    raise TypeError(f"not a logical form: {lf!r}")


# Characters no entity or relation id may hold: the form delimiters and every
# character str.isspace() accepts (none lies above U+3000).  Without "(),"
# every form serializes to text of its own, and generation deduplicates forms
# by that text; without whitespace a form stays one tab-separated field of an
# eval report row.  kgraph rejects catalog ids that hold any.
ID_FORBIDDEN = frozenset("(),") | frozenset(filter(str.isspace, map(chr, range(0x3001))))


def _linked_entities(query_tokens, kg: kgraph.KnowledgeGraph):
    """Entities named by a span of the query, ascending by id; a span longer
    than the graph's longest alias names nothing, so none is looked up."""
    seen = set()
    linked = []
    n = len(query_tokens)
    for length in range(1, min(kg.max_alias_tokens, n) + 1):
        for start in range(0, n - length + 1):
            span = query_tokens[start : start + length]
            for ent in kg.entities_by_alias(span):
                if ent.id not in seen:
                    seen.add(ent.id)
                    linked.append(ent)
    linked.sort(key=lambda e: e.id)
    return linked


def generate_candidates(
    query_tokens, kg: kgraph.KnowledgeGraph, cfg: GenConfig
) -> list[Candidate]:
    """Enumerate template candidates for the linked entity spans.

    ``query_tokens`` are as :func:`features.tokenize` gives them.  Each
    form is rendered to its template's utterance as it is built.  T3 pairs
    the relations into two linked entities that share a subject, so no
    empty inner intersection is built.  The result is deduplicated, sorted
    by serialized form ascending, and truncated to ``cfg.max_candidates``.
    No alias match yields an empty list.
    """
    if not query_tokens:
        raise ValueError("query_tokens must be non-empty")
    linked = _linked_entities(list(query_tokens), kg)
    relations = sorted(kg.relations.items())
    forms: dict = {}

    def add(lf: LogicalForm, utterance: str):
        forms.setdefault(serialize(lf), (lf, utterance))

    for ent in linked:
        lit = EntityLit(ent.id)
        for rid, rel in relations:
            add(Join(rid, lit), f"the {rel.phrase} of {ent.name}")
            add(ReverseJoin(rid, lit), f"the things whose {rel.phrase} is {ent.name}")
    for e1, e2 in itertools.permutations(linked, 2):
        for r1, subjects1 in kg.incoming(e1.id):
            for r2, subjects2 in kg.incoming(e2.id):
                if not subjects1.isdisjoint(subjects2):
                    inner = Intersect(ReverseJoin(r1, EntityLit(e1.id)),
                                      ReverseJoin(r2, EntityLit(e2.id)))
                    thing = (f"the thing whose {kg.relations[r1].phrase} is {e1.name}"
                             f" and whose {kg.relations[r2].phrase} is {e2.name}")
                    for rid, rel in relations:
                        add(Join(rid, inner), f"the {rel.phrase} of {thing}")

    return [
        Candidate(
            logical_form=lf,
            utterance_tokens=tuple(tokenize(utterance)),
            denotation=kgraph.denotation(lf, kg),
        )
        for _, (lf, utterance) in sorted(forms.items())[: cfg.max_candidates]
    ]
