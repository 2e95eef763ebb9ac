"""In-memory triple store with alias lookup and logical-form execution.

The graph is indexed by the only questions asked of it: which objects a
subject reaches through a relation (:meth:`KnowledgeGraph.forward`), which
subjects reach an object (:meth:`KnowledgeGraph.backward`), which relations
lead out of and into an entity (:meth:`KnowledgeGraph.outgoing`,
:meth:`KnowledgeGraph.incoming`) and which entities an alias names;
``max_alias_tokens``, the token count of the longest alias, bounds the
spans that entity linking tries; ``phrase_tokens`` maps each relation
id to its phrase's tokens, from which generation assembles utterances;
``names`` maps each entity id to its normalized name, the very string the
alias index keys that name by (``""`` for a name with no letter or
digit), from which F1 reads answer names.  Each name is normalized once,
when the graph is built.
The constructor checks every triple's ids against the catalogs and hands
the indexes the catalog's own id strings, and no separate triple set is
kept; ``kg.triples`` is a read-only view over the forward index.

Every index entry is a frozenset, so no read builds a set.  While the
constructor inserts, an entry is its bare member until a second, distinct
member arrives, and a set from then on; after the last insertion each grown
set is frozen and each bare member becomes that member's one
``frozenset((member,))``, shared by every one-member entry of both indexes.
On the ``pipebench`` ``large`` graph (seed 1), whose 100,000 forward
entries each hold one object, ``load_graph`` retains 21.5 MiB and peaks
at 24.3 MiB (``tracemalloc``, Python 3.11).

Graphs are immutable once built; all lookup methods are safe for
concurrent use.
"""

from __future__ import annotations

import gc
from collections.abc import Set
from dataclasses import dataclass
from typing import Iterable, Iterator

from . import TensorparseError, logform
from .features import normalize_phrase, tokenize


class GraphParseError(TensorparseError):
    """Malformed catalog or triple line."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class ReferentialError(TensorparseError):
    """A triple or logical form names an id missing from the catalogs."""


def _shown(ident: str) -> str:
    """An id or a path as an error message echoes it: as it is when printable,
    else its ``repr``, so none can break the message's line or reach a terminal
    as a control sequence."""
    return ident if ident.isprintable() else repr(ident)


@dataclass(frozen=True)
class Entity:
    id: str
    name: str
    aliases: tuple[str, ...]


@dataclass(frozen=True)
class Relation:
    id: str
    phrase: str


_EMPTY: frozenset = frozenset()
_NO_FACTS: dict = {}


def _add(index: dict, key: str, relation: str, member: str) -> None:
    """Put ``member`` in ``index[key][relation]``: bare while it is the only
    member, in a set of the entry's own once a second, distinct one arrives."""
    rels = index.get(key)
    if rels is None:
        index[key] = {relation: member}
        return
    members = rels.get(relation)
    if members is None:
        rels[relation] = member
    elif type(members) is set:
        members.add(member)
    elif members != member:
        rels[relation] = {members, member}


def _freeze(index: dict, singletons: dict) -> int:
    """Freeze each grown set of an index in place and replace each bare member
    with its one frozenset in ``singletons``; return the member count."""
    count = 0
    for rels in index.values():
        for r, members in rels.items():
            if type(members) is set:
                rels[r] = frozenset(members)
                count += len(members)
            else:
                one = singletons.get(members)
                if one is None:
                    one = singletons[members] = frozenset((members,))
                rels[r] = one
                count += 1
    return count


class TripleView(Set):
    """The graph's distinct triples, read from its forward index.

    ``len`` is O(1), iteration yields ``(s, r, o)`` tuples, and membership is
    two dict lookups and a set lookup.  Set operators return frozensets.
    """

    __slots__ = ("_forward", "_count")

    def __init__(self, forward: dict, count: int):
        self._forward = forward
        self._count = count

    @classmethod
    def _from_iterable(cls, it):
        return frozenset(it)

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[tuple[str, str, str]]:
        for s, rels in self._forward.items():
            for r, objs in rels.items():
                for o in objs:
                    yield s, r, o

    def __contains__(self, item) -> bool:
        if not isinstance(item, tuple) or len(item) != 3:
            return False
        s, r, o = item
        return o in self._forward.get(s, _NO_FACTS).get(r, _EMPTY)


class KnowledgeGraph:
    """Forward and backward indexes over a deduplicated set of triples.

    ``_forward`` maps subject to ``{relation: frozenset(objects)}`` and
    ``_backward`` maps object to ``{relation: frozenset(subjects)}``; both
    are built in one pass over the triples, so they are exact inverses.
    Each one-member entry is its member's one frozenset, shared by both
    indexes and made when the build freezes them.  ``triples`` is a
    :class:`TripleView` over ``_forward``; a triple whose subject, relation
    or object is missing from the catalogs raises :class:`ReferentialError`.
    """

    def __init__(
        self,
        entities: dict,
        relations: dict,
        triples: Iterable[tuple[str, str, str]],
    ):
        self.entities: dict = dict(entities)
        self.relations: dict = dict(relations)
        # One dict get both checks that an id is in the catalog and finds the
        # catalog's copy, so the indexes hold one string per id, not one per
        # triple.
        entity_ids = {eid: eid for eid in self.entities}
        relation_ids = {rid: rid for rid in self.relations}
        forward: dict = {}
        backward: dict = {}
        for subject, relation, obj in triples:
            s = entity_ids.get(subject)
            if s is None:
                raise ReferentialError(f"unknown subject entity id: {_shown(subject)}")
            r = relation_ids.get(relation)
            if r is None:
                raise ReferentialError(f"unknown relation id: {_shown(relation)}")
            o = entity_ids.get(obj)
            if o is None:
                raise ReferentialError(f"unknown object entity id: {_shown(obj)}")
            _add(forward, s, r, o)
            _add(backward, o, r, s)
        # Freed before the indexes are frozen and the alias index is built,
        # when memory peaks.
        del entity_ids, relation_ids
        singletons: dict = {}  # member -> frozenset((member,)), for both indexes
        _freeze(backward, singletons)
        self.triples = TripleView(forward, _freeze(forward, singletons))
        del singletons
        self._forward = forward
        self._backward = backward
        # key -> [the key's string, then the ids of the entities it names]:
        # an entity's name is that first string, the one the index keeps
        alias_index: dict = {}
        names: dict = {}
        for ent in self.entities.values():
            name = normalize_phrase(ent.name)
            keys = {normalize_phrase(a) for a in ent.aliases if a != ent.name}
            keys.add(name)
            keys.discard("")
            for key in keys:
                alias_index.setdefault(key, [key]).append(ent.id)
            names[ent.id] = alias_index[name][0] if name else name
        self.names = names
        self._alias_index = {k: tuple(sorted(v[1:])) for k, v in alias_index.items()}
        # a key of k tokens matches only a tokenized span of k tokens
        self.max_alias_tokens = max((k.count(" ") + 1 for k in alias_index), default=0)
        self.phrase_tokens = {rid: tuple(tokenize(r.phrase)) for rid, r in self.relations.items()}

    def forward(self, subject: str, relation: str) -> frozenset:
        return self._forward.get(subject, _NO_FACTS).get(relation, _EMPTY)

    def backward(self, obj: str, relation: str) -> frozenset:
        return self._backward.get(obj, _NO_FACTS).get(relation, _EMPTY)

    def outgoing(self, entity_id: str) -> Iterator[tuple[str, frozenset]]:
        """``(relation id, frozenset(objects))`` for each relation out of the entity."""
        return iter(self._forward.get(entity_id, _NO_FACTS).items())

    def incoming(self, entity_id: str) -> Iterator[tuple[str, frozenset]]:
        """``(relation id, frozenset(subjects))`` for each relation into the entity."""
        return iter(self._backward.get(entity_id, _NO_FACTS).items())

    def entities_by_alias(self, span: Iterable[str]) -> tuple[Entity, ...]:
        """Entities with a normalized alias equal to the span's tokens.

        ``span`` holds tokens as :func:`features.tokenize` gives them, which
        are already normalized, so their single-spaced join is the key
        looked up.  Returned in ascending entity-id order; empty tuple when
        nothing matches.
        """
        key = " ".join(span)
        return tuple(self.entities[eid] for eid in self._alias_index.get(key, ()))

    def entity(self, entity_id: str) -> Entity:
        try:
            return self.entities[entity_id]
        except KeyError:
            raise ReferentialError(f"unknown entity id: {_shown(entity_id)}") from None

    def relation(self, relation_id: str) -> Relation:
        try:
            return self.relations[relation_id]
        except KeyError:
            raise ReferentialError(f"unknown relation id: {_shown(relation_id)}") from None


def _content_lines(source: Iterable[str]):
    for lineno, raw in enumerate(source, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        head = line.lstrip()
        if not head or head[0] == "#":
            continue
        yield lineno, line


def _check_id(kind: str, ident: str, lineno: int) -> None:
    """Reject an id that a serialized logical form or a triple line could not hold.

    A triple line that begins with ``#`` is a comment, so an id may not.
    """
    if not ident or ident[0] == "#" or not logform.ID_FORBIDDEN.isdisjoint(ident):
        raise GraphParseError(
            f"{kind} id {ident!r} must be non-empty, not start with '#', "
            "and hold no '(', ')', ',' or whitespace",
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
            _, rid, phrase, _, _ = fields  # the domain and range types go unread
            _check_id("relation", rid, lineno)
            if not phrase:
                raise GraphParseError("relation phrase must be non-empty", lineno)
            if rid in relations:
                raise GraphParseError(f"duplicate relation id {rid!r}", lineno)
            relations[rid] = Relation(id=rid, phrase=phrase)
        else:
            raise GraphParseError(f"unknown record kind {kind!r}", lineno)
    return entities, relations


def load_graph(
    triple_source: Iterable[str], catalog_source: Iterable[str]
) -> KnowledgeGraph:
    """Build a fully indexed graph from TSV line streams.

    A triple line is ``subject<TAB>relation<TAB>object``; catalog lines
    are ``E<TAB>id<TAB>name<TAB>alias1|alias2|...`` or
    ``R<TAB>id<TAB>phrase<TAB>domainType<TAB>rangeType``.  Blank lines
    and ``#`` comments are ignored; duplicate triples deduplicate.  An
    error in a triple line names the line.

    The cyclic garbage collector is paused while the graph is built and
    then restored to the state it was in: nothing built here holds a
    cycle, and each collection pass would rescan every set built so far.
    """
    lineno = 0

    def triples():
        nonlocal lineno
        for lineno, line in _content_lines(triple_source):
            fields = line.split("\t")
            if len(fields) != 3:
                raise GraphParseError(
                    f"triple line needs 3 tab-separated fields, got {len(fields)}",
                    lineno,
                )
            yield fields

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        entities, relations = _parse_catalog(catalog_source)
        try:
            return KnowledgeGraph(entities, relations, triples())
        except ReferentialError as exc:
            # the constructor stopped at the triple last read, on line lineno
            raise ReferentialError(f"line {lineno}: {exc}") from None
    finally:
        if was_enabled:
            gc.enable()


def denotation(lf, kg: KnowledgeGraph) -> frozenset:
    """Entity set denoted by a logical form, as a frozenset of entity ids.

    Raises :class:`ReferentialError` for ids missing from the graph; an
    empty result is not an error.  This is the specification of a
    candidate's denotation: :func:`logform.generate_candidates` reads each
    one off the indexes without calling it, and is tested against it.
    """
    if isinstance(lf, logform.EntityLit):
        kg.entity(lf.entity_id)
        return frozenset((lf.entity_id,))
    if isinstance(lf, (logform.Join, logform.ReverseJoin)):
        kg.relation(lf.relation_id)
        step = kg.forward if isinstance(lf, logform.Join) else kg.backward
        out: set = set()
        for e in denotation(lf.sub, kg):
            out |= step(e, lf.relation_id)
        return frozenset(out)
    if isinstance(lf, logform.Intersect):
        return denotation(lf.left, kg) & denotation(lf.right, kg)
    raise TypeError(f"not a logical form: {lf!r}")
