"""Logical-form AST, candidate generation, and canonical utterances.

Three templates are generated from entity spans linked in the query:

    T1  join(r, ent(e))                          "the R of E"
    T2  rev(r, ent(e))                           "the things whose R is E"
    T3  join(r, and(rev(r1, ent(e1)),
                    rev(r2, ent(e2))))           two-constraint form

Generation is deterministic: output is sorted by serialized form and
truncated to the configured cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from . import ConfigError, TensorparseError, kgraph
from .features import tokenize


class LfParseError(TensorparseError):
    """Malformed serialized logical form."""

    def __init__(self, message: str, position: int):
        super().__init__(f"position {position}: {message}")
        self.position = position


class UnsupportedShapeError(TensorparseError):
    """Logical form does not match any utterance template."""


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
    enable_two_constraint: bool = True

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


_ID_FORBIDDEN = set("(),") | set(" \t\n\r\f\v")


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
        while self.pos < len(self.text) and self.text[self.pos] not in _ID_FORBIDDEN:
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


def _two_constraint_parts(lf: Join):
    """Return (r, r1, e1, r2, e2) ids if lf has the T3 shape, else None."""
    inner = lf.sub
    if not isinstance(inner, Intersect):
        return None
    left, right = inner.left, inner.right
    if not (isinstance(left, ReverseJoin) and isinstance(right, ReverseJoin)):
        return None
    if not (isinstance(left.sub, EntityLit) and isinstance(right.sub, EntityLit)):
        return None
    return (
        lf.relation_id,
        left.relation_id,
        left.sub.entity_id,
        right.relation_id,
        right.sub.entity_id,
    )


def canonical_utterance(lf: LogicalForm, kg: kgraph.KnowledgeGraph) -> str:
    """Rule-based natural-language rendering of a template-shaped form."""
    if isinstance(lf, Join):
        r = kg.relation(lf.relation_id)
        if isinstance(lf.sub, EntityLit):
            e = kg.entity(lf.sub.entity_id)
            return f"the {r.phrase} of {e.name}"
        parts = _two_constraint_parts(lf)
        if parts is not None:
            _, r1_id, e1_id, r2_id, e2_id = parts
            r1 = kg.relation(r1_id)
            r2 = kg.relation(r2_id)
            e1 = kg.entity(e1_id)
            e2 = kg.entity(e2_id)
            return (
                f"the {r.phrase} of the thing whose {r1.phrase} is {e1.name}"
                f" and whose {r2.phrase} is {e2.name}"
            )
    elif isinstance(lf, ReverseJoin) and isinstance(lf.sub, EntityLit):
        r = kg.relation(lf.relation_id)
        e = kg.entity(lf.sub.entity_id)
        return f"the things whose {r.phrase} is {e.name}"
    raise UnsupportedShapeError(f"no utterance template for {serialize(lf)}")


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

    T3 forms with an empty inner intersection are pruned.  The result is
    deduplicated, sorted by serialized form ascending, and truncated to
    ``cfg.max_candidates``.  No alias match yields an empty list.
    """
    if not query_tokens:
        raise ValueError("query_tokens must be non-empty")
    linked = _linked_entities(list(query_tokens), kg, cfg.max_span_length)
    rel_ids = sorted(kg.relations)
    forms: dict = {}

    def add(lf: LogicalForm):
        forms.setdefault(serialize(lf), lf)

    for ent in linked:
        for rid in rel_ids:
            add(Join(rid, EntityLit(ent.id)))
            add(ReverseJoin(rid, EntityLit(ent.id)))
    if cfg.enable_two_constraint and len(linked) >= 2:
        for e1 in linked:
            for e2 in linked:
                if e1.id == e2.id:
                    continue
                for r1 in rel_ids:
                    for r2 in rel_ids:
                        inner = Intersect(
                            ReverseJoin(r1, EntityLit(e1.id)),
                            ReverseJoin(r2, EntityLit(e2.id)),
                        )
                        if not kgraph.denotation(inner, kg):
                            continue
                        for r in rel_ids:
                            add(Join(r, inner))

    out = []
    for _, lf in sorted(forms.items())[: cfg.max_candidates]:
        utterance = canonical_utterance(lf, kg)
        out.append(
            Candidate(
                logical_form=lf,
                utterance_tokens=tuple(tokenize(utterance)),
                denotation=kgraph.denotation(lf, kg),
            )
        )
    return out
