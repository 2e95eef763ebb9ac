"""Logical-form AST, candidate generation, and canonical utterances.

Three templates are generated from entity spans linked in the query, each
with the canonical utterance that generation renders beside it:

    T1  join(r, ent(e))            "the R of E"
    T2  rev(r, ent(e))             "the things whose R is E"
    T3  join(r, and(rev(r1, ent(e1)),
                    rev(r2, ent(e2))))
                                   "the R of the thing whose R1 is E1
                                    and whose R2 is E2"

R is a relation's phrase and E an entity's name.  T3 pairs a relation into
e1 with one into e2 that shares a subject, so no empty inner intersection
is built.  Generation is deterministic: output is sorted by serialized form
and truncated to the configured cap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Union

from . import ConfigError, TensorparseError, kgraph
from .features import tokenize


class LfParseError(TensorparseError):
    """Malformed serialized logical form."""

    def __init__(self, message: str, position: int):
        super().__init__(f"position {position}: {message}")
        self.position = position


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
    max_span_length: int = 3

    def __post_init__(self):
        if self.max_candidates < 1:
            raise ConfigError("max_candidates must be >= 1")
        if self.max_span_length < 1:
            raise ConfigError("max_span_length must be >= 1")


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
# character str.isspace() accepts (none lies above U+3000).  With them an id
# could serialize like another form, or lose its leading characters to
# skip_ws.  kgraph rejects catalog ids that hold any.
ID_FORBIDDEN = frozenset("(),") | frozenset(filter(str.isspace, map(chr, range(0x3001))))


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str):
        raise LfParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def expect(self, ch: str):
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def ident(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] not in ID_FORBIDDEN:
            self.pos += 1
        if self.pos == start:
            self.error("expected identifier")
        return self.text[start : self.pos]

    def form(self) -> LogicalForm:
        head = self.ident()
        self.expect("(")
        self.skip_ws()
        if head == "ent":
            eid = self.ident()
            self.skip_ws()
            self.expect(")")
            return EntityLit(eid)
        if head in ("join", "rev"):
            rid = self.ident()
            self.skip_ws()
            self.expect(",")
            self.skip_ws()
            sub = self.form()
            self.skip_ws()
            self.expect(")")
            return Join(rid, sub) if head == "join" else ReverseJoin(rid, sub)
        if head == "and":
            left = self.form()
            self.skip_ws()
            self.expect(",")
            self.skip_ws()
            right = self.form()
            self.skip_ws()
            self.expect(")")
            return Intersect(left, right)
        self.error(f"unknown form head {head!r}")


def parse(text: str) -> LogicalForm:
    p = _Parser(text)
    p.skip_ws()
    lf = p.form()
    p.skip_ws()
    if p.pos != len(text):
        p.error("trailing characters after logical form")
    return lf


def _linked_entities(query_tokens, kg: kgraph.KnowledgeGraph, max_span: int):
    seen = set()
    linked = []
    n = len(query_tokens)
    for length in range(1, min(max_span, n) + 1):
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

    Each form is rendered to its template's utterance as it is built.  T3
    pairs the relations into two linked entities that share a subject, so
    no empty inner intersection is built.  The result is deduplicated,
    sorted by serialized form ascending, and truncated to
    ``cfg.max_candidates``.  No alias match yields an empty list.
    """
    if not query_tokens:
        raise ValueError("query_tokens must be non-empty")
    linked = _linked_entities(list(query_tokens), kg, cfg.max_span_length)
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
