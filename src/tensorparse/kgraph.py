"""In-memory triple store with alias lookup and logical-form execution.

Graphs are immutable once built by :func:`load_graph`; all lookup methods
are safe for concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from . import TensorparseError, logform
from .features import normalize_phrase


class GraphError(TensorparseError):
    pass


class GraphParseError(GraphError):
    """Malformed catalog or triple line."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class ReferentialError(GraphError):
    """A triple or logical form names an id missing from the catalogs."""


@dataclass(frozen=True)
class Entity:
    id: str
    name: str
    aliases: tuple[str, ...]


@dataclass(frozen=True)
class Relation:
    id: str
    phrase: str
    domain_type: str = ""
    range_type: str = ""


class Triple(NamedTuple):
    subject: str
    relation: str
    object: str


_EMPTY: frozenset = frozenset()


class KnowledgeGraph:
    """Deduplicated triple set plus forward/backward indexes.

    forward maps (subject, relation) to the object set; backward maps
    (object, relation) to the subject set.  The two indexes are exact
    inverses by construction.
    """

    def __init__(
        self,
        entities: dict,
        relations: dict,
        triples: Iterable[Triple],
    ):
        self.entities: dict = dict(entities)
        self.relations: dict = dict(relations)
        self.triples: frozenset = frozenset(triples)
        forward: dict = {}
        backward: dict = {}
        for s, r, o in self.triples:
            forward.setdefault((s, r), set()).add(o)
            backward.setdefault((o, r), set()).add(s)
        self._forward = {k: frozenset(v) for k, v in forward.items()}
        self._backward = {k: frozenset(v) for k, v in backward.items()}
        alias_index: dict = {}
        for ent in self.entities.values():
            keys = {normalize_phrase(a) for a in ent.aliases}
            keys.add(normalize_phrase(ent.name))
            keys.discard("")
            for key in keys:
                alias_index.setdefault(key, set()).add(ent.id)
        self._alias_index = {k: tuple(sorted(v)) for k, v in alias_index.items()}

    def forward(self, subject: str, relation: str) -> frozenset:
        return self._forward.get((subject, relation), _EMPTY)

    def backward(self, obj: str, relation: str) -> frozenset:
        return self._backward.get((obj, relation), _EMPTY)

    def entities_by_alias(self, span: Iterable[str]) -> tuple[Entity, ...]:
        """Entities whose normalized alias equals the normalized span.

        Returned in ascending entity-id order; empty tuple when nothing
        matches.
        """
        key = normalize_phrase(" ".join(span))
        return tuple(self.entities[eid] for eid in self._alias_index.get(key, ()))

    def entity(self, entity_id: str) -> Entity:
        try:
            return self.entities[entity_id]
        except KeyError:
            raise ReferentialError(f"unknown entity id: {entity_id}") from None

    def relation(self, relation_id: str) -> Relation:
        try:
            return self.relations[relation_id]
        except KeyError:
            raise ReferentialError(f"unknown relation id: {relation_id}") from None


def _content_lines(source: Iterable[str]):
    for lineno, raw in enumerate(source, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        yield lineno, line


def _check_id(kind: str, ident: str, lineno: int) -> None:
    """Reject an id that a serialized logical form could not hold."""
    if not ident or not logform.ID_FORBIDDEN.isdisjoint(ident):
        raise GraphParseError(
            f"{kind} id {ident!r} must be non-empty, with no '(', ')', ',' or whitespace",
            lineno,
        )


def _parse_catalog(catalog_source: Iterable[str]):
    entities: dict = {}
    relations: dict = {}
    for lineno, line in _content_lines(catalog_source):
        fields = line.split("\t")
        kind = fields[0]
        if kind == "E":
            if len(fields) != 4:
                raise GraphParseError(
                    f"entity line needs 4 tab-separated fields, got {len(fields)}",
                    lineno,
                )
            _, eid, name, alias_field = fields
            _check_id("entity", eid, lineno)
            if not name:
                raise GraphParseError("entity name must be non-empty", lineno)
            if eid in entities:
                raise GraphParseError(f"duplicate entity id {eid!r}", lineno)
            aliases = tuple(a for a in alias_field.split("|") if a)
            if name not in aliases:
                aliases = (name,) + aliases
            entities[eid] = Entity(id=eid, name=name, aliases=aliases)
        elif kind == "R":
            if len(fields) != 5:
                raise GraphParseError(
                    f"relation line needs 5 tab-separated fields, got {len(fields)}",
                    lineno,
                )
            _, rid, phrase, domain_type, range_type = fields
            _check_id("relation", rid, lineno)
            if not phrase:
                raise GraphParseError("relation phrase must be non-empty", lineno)
            if rid in relations:
                raise GraphParseError(f"duplicate relation id {rid!r}", lineno)
            relations[rid] = Relation(
                id=rid, phrase=phrase, domain_type=domain_type, range_type=range_type
            )
        else:
            raise GraphParseError(f"unknown record kind {kind!r}", lineno)
    return entities, relations


def load_graph(
    triple_source: Iterable[str], catalog_source: Iterable[str]
) -> KnowledgeGraph:
    """Build a fully indexed graph from TSV line streams.

    Triple lines are ``subject<TAB>relation<TAB>object``; catalog lines
    are ``E<TAB>id<TAB>name<TAB>alias1|alias2|...`` or
    ``R<TAB>id<TAB>phrase<TAB>domainType<TAB>rangeType``.  Blank lines
    and ``#`` comments are ignored; duplicate triples deduplicate.
    """
    entities, relations = _parse_catalog(catalog_source)
    triples = set()
    for lineno, line in _content_lines(triple_source):
        fields = line.split("\t")
        if len(fields) != 3:
            raise GraphParseError(
                f"triple line needs 3 tab-separated fields, got {len(fields)}",
                lineno,
            )
        s, r, o = fields
        if s not in entities:
            raise ReferentialError(f"unknown subject entity id: {s}")
        if r not in relations:
            raise ReferentialError(f"unknown relation id: {r}")
        if o not in entities:
            raise ReferentialError(f"unknown object entity id: {o}")
        triples.add(Triple(s, r, o))
    return KnowledgeGraph(entities, relations, triples)


def denotation(lf, kg: KnowledgeGraph) -> frozenset:
    """Entity set denoted by a logical form, as a frozenset of entity ids.

    Raises :class:`ReferentialError` for ids missing from the graph; an
    empty result is not an error.
    """
    if isinstance(lf, logform.EntityLit):
        kg.entity(lf.entity_id)
        return frozenset((lf.entity_id,))
    if isinstance(lf, logform.Join):
        kg.relation(lf.relation_id)
        sub = denotation(lf.sub, kg)
        out: set = set()
        for s in sub:
            out |= kg.forward(s, lf.relation_id)
        return frozenset(out)
    if isinstance(lf, logform.ReverseJoin):
        kg.relation(lf.relation_id)
        sub = denotation(lf.sub, kg)
        out = set()
        for s in sub:
            out |= kg.backward(s, lf.relation_id)
        return frozenset(out)
    if isinstance(lf, logform.Intersect):
        return denotation(lf.left, kg) & denotation(lf.right, kg)
    raise TypeError(f"not a logical form: {lf!r}")
