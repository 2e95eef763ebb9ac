"""Logical-form AST, candidate generation, and canonical utterances.

Three templates are generated from entity spans linked in the query, each
with the tokens of the canonical utterance that generation assembles beside
it from the relation phrases' and entity names' tokens:

    T1  join(r, ent(e))            "the R of E"
    T2  rev(r, ent(e))             "the things whose R is E"
    T3  join(r, and(rev(r1, ent(e1)),
                    rev(r2, ent(e2))))
                                   "the R of the thing whose R1 is E1
                                    and whose R2 is E2"

R is a relation's phrase and E an entity's name.  Entities are linked by
spans grown from each query token while some alias begins with the span,
so every catalog alias can link.
T1 reads the relations out of E, T2 those into E, and T3 pairs relations
into E1 and E2 that share a subject, R read out of the shared subjects
(once per distinct set of them), so every form denotes the index set it
was read from.  Each form is keyed by its serialized text, written from
the ids generation builds it of rather than by :func:`serialize`; output
is sorted by that text, the order :func:`learner.predict` breaks ties by,
and the first N are kept, N the configured cap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

from . import ConfigError
from .features import tokenize  # unused here; pipebench's traced run hooks this name

if TYPE_CHECKING:  # kgraph imports this module, not the reverse
    from .kgraph import KnowledgeGraph


# The records built once per form or candidate fill their fields straight into
# the instance dict: a frozen dataclass's own __init__ goes through
# object.__setattr__ once per field, about twice the cost.  dataclass keeps
# an __init__ written in the class body and still generates the frozen
# __setattr__/__delattr__, __eq__, __hash__ and __repr__.


@dataclass(frozen=True)
class EntityLit:
    entity_id: str

    def __init__(self, entity_id):
        self.__dict__["entity_id"] = entity_id


@dataclass(frozen=True)
class Join:
    relation_id: str
    sub: "LogicalForm"

    def __init__(self, relation_id, sub):
        d = self.__dict__
        d["relation_id"] = relation_id
        d["sub"] = sub


@dataclass(frozen=True)
class ReverseJoin:
    relation_id: str
    sub: "LogicalForm"

    def __init__(self, relation_id, sub):
        d = self.__dict__
        d["relation_id"] = relation_id
        d["sub"] = sub


@dataclass(frozen=True)
class Intersect:
    left: "LogicalForm"
    right: "LogicalForm"

    def __init__(self, left, right):
        d = self.__dict__
        d["left"] = left
        d["right"] = right


LogicalForm = Union[EntityLit, Join, ReverseJoin, Intersect]


@dataclass(frozen=True)
class Candidate:
    logical_form: LogicalForm
    utterance_tokens: tuple[str, ...]
    denotation: frozenset

    def __init__(self, logical_form, utterance_tokens, denotation):
        d = self.__dict__
        d["logical_form"] = logical_form
        d["utterance_tokens"] = utterance_tokens
        d["denotation"] = denotation


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
# every form serializes to text of its own, and generation keys and sorts
# forms by that text; without whitespace a form stays one tab-separated field
# of an eval report row.  kgraph rejects catalog ids that hold any.
ID_FORBIDDEN = frozenset("(),") | frozenset(filter(str.isspace, map(chr, range(0x3001))))


def _linked_entities(query_tokens, kg: KnowledgeGraph) -> list[str]:
    """Ids of the entities named by a span of the query, ascending.

    From each start token the span is looked up, then grown by the next
    token while it is a proper prefix of some alias key
    (``kg.alias_prefixes``): a span that no alias begins with cannot grow
    into one, so no longer span from that start is looked up.
    """
    linked: set = set()
    n = len(query_tokens)
    for start in range(n):
        key = query_tokens[start]
        for end in range(start + 1, n + 1):
            linked.update(kg.entities_by_alias(key))
            if end == n or key not in kg.alias_prefixes:
                break
            key = f"{key} {query_tokens[end]}"
    return sorted(linked)


def generate_candidates(
    query_tokens, kg: KnowledgeGraph, cfg: GenConfig
) -> list[Candidate]:
    """Enumerate template candidates for the linked entity spans.

    ``query_tokens`` are as :func:`features.tokenize` gives them.  Each
    form is built from the index entry it reads, and the entry's set is
    the denotation that :func:`kgraph.denotation` gives the form.  Its
    utterance tokens join the template's words to ``kg.phrase_tokens``
    and the linked entities' name tokens, read from ``kg.names``, as
    tokenizing the utterance text would: no token spans a space.  The
    result is sorted by serialized form, the order :func:`learner.predict`
    breaks ties by, and the first ``cfg.max_candidates`` kept; a query
    that links no entity with a fact yields an empty list.
    """
    if not query_tokens:
        raise ValueError("query_tokens must be non-empty")
    linked = [(eid, EntityLit(eid), tuple(kg.names[eid].split()))
              for eid in _linked_entities(list(query_tokens), kg)]
    phrase = kg.phrase_tokens
    # serialized form -> (form, utterance tokens, denotation); each key is
    # written from the ids it holds and equals serialize(form)
    forms: dict = {}
    for eid, lit, name in linked:
        for rid, objects in kg.outgoing(eid):
            forms[f"join({rid}, ent({eid}))"] = (
                Join(rid, lit), ("the", *phrase[rid], "of", *name), objects)
        for rid, subjects in kg.incoming(eid):
            forms[f"rev({rid}, ent({eid}))"] = (
                ReverseJoin(rid, lit), ("the", "things", "whose", *phrase[rid], "is", *name),
                subjects)
    # shared subjects -> {relation: objects} read out of them; on a hub, many
    # (r1, r2) pairs share one set of subjects
    outers: dict = {}
    for (e1, lit1, name1), (e2, lit2, name2) in itertools.permutations(linked, 2):
        for r1, subjects1 in kg.incoming(e1):
            for r2, subjects2 in kg.incoming(e2):
                things = subjects1 & subjects2
                if things:
                    inner = Intersect(ReverseJoin(r1, lit1), ReverseJoin(r2, lit2))
                    inner_key = f"and(rev({r1}, ent({e1})), rev({r2}, ent({e2})))"
                    thing = ("the", "thing", "whose", *phrase[r1], "is", *name1,
                             "and", "whose", *phrase[r2], "is", *name2)
                    outer = outers.get(things)
                    if outer is None:
                        outer = outers[things] = {}
                        for s in things:
                            for rid, objects in kg.outgoing(s):
                                outer[rid] = outer[rid] | objects if rid in outer else objects
                    for rid, objects in outer.items():
                        forms[f"join({rid}, {inner_key})"] = (
                            Join(rid, inner), ("the", *phrase[rid], "of", *thing), objects)

    return [Candidate(*forms[key]) for key in sorted(forms)[: cfg.max_candidates]]
