"""In-memory triple store with alias lookup and logical-form execution.

The graph is indexed by the only questions asked of it: which relations
lead out of an entity and to which objects (:meth:`KnowledgeGraph.outgoing`),
which lead into it and from which subjects
(:meth:`KnowledgeGraph.incoming`), and the ids of the entities that a
name or alias names (:meth:`KnowledgeGraph.entities_by_alias`), which is
all that entity linking reads; ``alias_prefixes`` holds every
proper token prefix of every alias key, so entity linking grows a span only
while some alias begins with it; ``phrase_tokens`` maps each relation
id to its phrase's tokens, from which generation assembles utterances;
``names`` maps each entity id to its normalized name (``""`` for a name
with no letter or digit), from which F1 reads answer names and generation
an entity's name tokens, and ``display_names`` to its name as the catalog
gives it, from which ``predict`` prints answers.  Each name is normalized
once, when the graph is built.  Of the catalog the graph keeps only these
maps, the alias index and ``phrase_tokens``.  The alias index is built in
the form it keeps: a key that one entity names holds that entity's one-id
tuple from the start, and only a key that several entities name is
collected apart and then sorted.
The constructor checks every triple's ids against the catalogs and hands
the indexes the catalog's own id strings, and no separate triple set is
kept; ``len(kg.triples)`` counts the distinct triples.

Both indexes have one layout: each entity maps to one flat list, a
subject to ``[r, o, r, o, ...]`` and an object to ``[r, s, r, s, ...]``.
The constructor's loop appends each triple's two pairs itself, with no
call per triple and no check, so a repeated triple line stays in both
lists, and makes no pass over the indexes after it.  The first read of an
entity in one direction groups its list into ``{relation:
frozenset(members)}`` (:func:`_grouped`), in the order each relation first
appears, which removes the repeats.  The entity is then recorded as done,
so a later read is one dict lookup.  Every entry a read returns is a
frozenset, so no read builds a set.  A question reads few of a graph's
entities, so most lists are never grouped.  :func:`load_graph` gives the
memory this takes.

A graph answers every lookup the same way once built.  A first read is
idempotent: two threads that make it at once build equal dicts and take
the recorded one through ``dict.setdefault``, so all lookup methods are
safe for concurrent use.
"""

from __future__ import annotations

import gc
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


_NO_FACTS: dict = {}


def _token_prefixes(key: str) -> Iterator[str]:
    """Each prefix of ``key`` that ends just before one of its inner spaces."""
    end = key.rfind(" ")
    while end > 0:
        yield key[:end]
        end = key.rfind(" ", 0, end)


def _grouped(index: dict, done: dict, entity_id: str) -> dict:
    """The entity's ``{relation: frozenset(members)}`` in ``index``, for its
    first read.

    Groups the entity's ``[r, m, r, m, ...]`` list by relation, in the order
    each relation first appears; the frozensets drop a repeated triple's
    member.  The list is left as it is and the result recorded in ``done``
    through ``dict.setdefault``, so threads that group one entity at once
    all return the one dict recorded.  An entity with no entries gives
    ``_NO_FACTS`` and is not recorded.
    """
    pairs = index.get(entity_id)
    if pairs is None:
        return _NO_FACTS
    grouped: dict = {}
    it = iter(pairs)
    for r, m in zip(it, it):
        grouped.setdefault(r, []).append(m)
    return done.setdefault(entity_id, {r: frozenset(ms) for r, ms in grouped.items()})


class TripleView:
    """The graph's distinct triples, of which only the count is read.

    ``len`` counts the distinct pairs in each subject's forward list on
    every call, and readies no subject.
    """

    __slots__ = ("_forward",)

    def __init__(self, forward: dict):
        # the graph's own dict, not the graph, so that no cycle holds it
        self._forward = forward

    def __len__(self) -> int:
        return sum(len(set(zip(it, it))) for it in map(iter, self._forward.values()))


class KnowledgeGraph:
    """Forward and backward indexes over a set of triples.

    ``_forward`` maps each subject to one flat list ``[r, o, r, o, ...]`` and
    ``_backward`` each object to ``[r, s, r, s, ...]``, each holding its
    triples' pairs in the order the triples arrived, a repeated triple's as
    often as it arrived.  Both are built in one pass over the triples, so they
    are exact inverses.  An entity's first read in one direction groups its
    list (see :func:`_grouped`) into ``_forward_done`` or ``_backward_done``,
    which map each entity read so far to its ``{relation: frozenset}``.  A
    first read is idempotent, so reads are safe for concurrent use.
    The constructor takes the catalog as three maps: ``display_names``,
    each entity id to its name, which the graph keeps as given;
    ``aliases``, an entity id to its aliases, for any entity that has
    some; and ``phrases``, each relation id to its phrase.
    ``_alias_index`` maps each normalized name or alias but ``""`` to the
    ascending tuple of ids of the entities it names.  The first entity to
    name a key stores its own one-id tuple there, which stays if no other
    entity names the key; only keys that a later entity also names gather
    their ids in a side dict, each then replaced by its sorted tuple.
    ``len(triples)`` counts the distinct triples (:class:`TripleView`); a
    triple whose subject, relation or object is missing from the catalogs
    raises :class:`ReferentialError`.
    """

    def __init__(
        self,
        display_names: dict,
        aliases: dict,
        phrases: dict,
        triples: Iterable[tuple[str, str, str]],
    ):
        self.display_names = display_names
        # One lookup both checks that an id is in the catalog and finds the
        # catalog's copy, so the indexes hold one string per id, not one per
        # triple.
        entity_ids = {eid: eid for eid in display_names}
        relation_ids = {rid: rid for rid in phrases}
        forward: dict = {}
        backward: dict = {}
        for subject, relation, obj in triples:
            try:
                s = entity_ids[subject]
                r = relation_ids[relation]
                o = entity_ids[obj]
            except KeyError:
                if subject not in entity_ids:
                    kind, ident = "subject entity", subject
                elif relation not in relation_ids:
                    kind, ident = "relation", relation
                else:
                    kind, ident = "object entity", obj
                raise ReferentialError(f"unknown {kind} id: {_shown(ident)}") from None
            # written out rather than called, which saves about a tenth of the
            # loop; a repeated triple is appended again, and a first read
            # removes it
            pairs = forward.get(s)
            if pairs is None:
                forward[s] = [r, o]
            else:
                pairs.append(r)
                pairs.append(o)
            pairs = backward.get(o)
            if pairs is None:
                backward[o] = [r, s]
            else:
                pairs.append(r)
                pairs.append(s)
        # Freed before the alias index is built, when memory peaks.
        del entity_ids, relation_ids
        self._forward = forward
        self._backward = backward
        self._forward_done: dict = {}
        self._backward_done: dict = {}
        self.triples = TripleView(forward)
        # key -> the ids of the entities it names, by name or by alias
        alias_index: dict = {}
        shared: dict = {}  # only the keys that a later entity also names
        names: dict = {}
        for eid, display in display_names.items():
            name = names[eid] = normalize_phrase(display)
            listed = aliases.get(eid)
            if listed is None:  # most entities: the name is the one key
                keys = (name,) if name else ()
            else:
                keys = {name, *map(normalize_phrase, listed)}
                keys.discard("")
            own = (eid,)
            for key in keys:
                ids = alias_index.get(key)
                if ids is None:
                    alias_index[key] = own
                else:
                    shared.setdefault(key, [*ids]).append(eid)
        for key, ids in shared.items():
            alias_index[key] = tuple(sorted(ids))
        self.names = names
        self._alias_index = alias_index
        # Linking grows a span only while it is one of these: so it reaches
        # every key of several tokens, and grows no span that no key extends.
        self.alias_prefixes = frozenset(
            prefix for key in alias_index if " " in key for prefix in _token_prefixes(key))
        self.phrase_tokens = {rid: tuple(tokenize(phrase)) for rid, phrase in phrases.items()}

    def outgoing(self, entity_id: str) -> Iterator[tuple[str, frozenset]]:
        """``(relation id, frozenset(objects))`` for each relation out of the entity."""
        rels = self._forward_done.get(entity_id)
        if rels is None:
            rels = _grouped(self._forward, self._forward_done, entity_id)
        return iter(rels.items())

    def incoming(self, entity_id: str) -> Iterator[tuple[str, frozenset]]:
        """``(relation id, frozenset(subjects))`` for each relation into the entity."""
        rels = self._backward_done.get(entity_id)
        if rels is None:
            rels = _grouped(self._backward, self._backward_done, entity_id)
        return iter(rels.items())

    def entities_by_alias(self, key: str) -> tuple[str, ...]:
        """Ids of the entities whose normalized name or alias equals ``key``.

        ``key`` is the single-spaced join of tokens as
        :func:`features.tokenize` gives them, which are already normalized.
        Returns the index's own tuple of ids, ascending, or an empty tuple
        when nothing matches.
        """
        return self._alias_index.get(key, ())


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


def _parse_catalog(catalog_source: Iterable[str]) -> tuple[dict, dict, dict]:
    """``({entity id: name}, {entity id: aliases}, {relation id: phrase})``;
    the alias map holds only the entities whose line lists an alias."""
    names: dict = {}
    aliases: dict = {}
    phrases: dict = {}
    for lineno, line in enumerate(catalog_source, start=1):
        # Dispatched on the kind first: a line whose first field is E or R is
        # neither blank nor a comment, so only the others are tested for those.
        fields = line.rstrip("\n").rstrip("\r").split("\t")
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
            if eid in names:
                raise GraphParseError(f"duplicate entity id {eid!r}", lineno)
            names[eid] = name
            if alias_field:
                listed = tuple(filter(None, alias_field.split("|")))
                if listed:
                    aliases[eid] = listed
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
            if rid in phrases:
                raise GraphParseError(f"duplicate relation id {rid!r}", lineno)
            phrases[rid] = phrase
        else:
            head = line.lstrip()
            if head and head[0] != "#":  # not a blank line or a comment
                raise GraphParseError(f"unknown record kind {kind!r}", lineno)
    return names, aliases, phrases


def load_graph(
    triple_source: Iterable[str], catalog_source: Iterable[str]
) -> KnowledgeGraph:
    """Build a fully indexed graph from TSV line streams.

    A triple line is ``subject<TAB>relation<TAB>object``; catalog lines
    are ``E<TAB>id<TAB>name<TAB>alias1|alias2|...`` or
    ``R<TAB>id<TAB>phrase<TAB>domainType<TAB>rangeType``.  An entity keeps
    its aliases as its line lists them, empty ones left out, and links by
    its name and by each of them.  Blank lines
    (empty or whitespace only) and comments (``#`` after any leading
    whitespace) are skipped but counted; the ``\\n`` and then the ``\\r``
    characters that end a line are not part of its last field.  A
    repeated triple line stays in the index lists until an entity's first
    read groups them, and no read returns it twice.  An error in a triple
    line names the line.

    The triple lines stream into the constructor through one generator,
    which skips, splits and checks each line in one loop, so the fields of
    one line at a time are held.  On the ``pipebench`` ``large`` graph
    (seed 1: 100,000 triple lines, no two alike, and 17,508 catalog lines)
    this retains 9.38 MiB and peaks at 9.40 MiB (``tracemalloc``, Python
    3.11), no list grouped yet: the graph keeps the display-name map that
    the catalog parse built, and builds the alias index in the form it
    keeps, so no copy of either is alive beside it.

    The cyclic garbage collector is paused while the graph is built and
    then restored to the state it was in: nothing built here holds a
    cycle, and each collection pass would rescan every list and set built
    so far.  On success the new graph goes to the oldest generation, which
    no young collection walks: ``gc.freeze()`` then ``gc.unfreeze()``
    moves every tracked object there unscanned or, if some are frozen
    already (as at the start of CPython 3.12.1), ``gc.collect(1)`` moves
    the young ones there with one scan.  The graph it returns is readied
    by its first reads, idempotently, and is safe for concurrent use.
    """
    lineno = 0

    def triples():
        nonlocal lineno  # the line read last, for the constructor's errors
        for lineno, line in enumerate(triple_source, start=1):
            head = line.lstrip()
            if not head or head[0] == "#":
                continue  # a blank line or a comment
            fields = line.rstrip("\n").rstrip("\r").split("\t")
            if len(fields) != 3:
                raise GraphParseError(
                    f"triple line needs 3 tab-separated fields, got {len(fields)}",
                    lineno,
                )
            yield fields

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            kg = KnowledgeGraph(*_parse_catalog(catalog_source), triples())
        except ReferentialError as exc:
            # the constructor stopped at the triple last read, on line lineno
            raise ReferentialError(f"line {lineno}: {exc}") from None
        if gc.get_freeze_count():
            gc.collect(1)  # unfreeze would also thaw what a caller froze
        else:
            # to the oldest generation, unscanned
            gc.freeze()
            gc.unfreeze()
        return kg
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
        if lf.entity_id not in kg.names:
            raise ReferentialError(f"unknown entity id: {_shown(lf.entity_id)}")
        return frozenset((lf.entity_id,))
    if isinstance(lf, (logform.Join, logform.ReverseJoin)):
        if lf.relation_id not in kg.phrase_tokens:
            raise ReferentialError(f"unknown relation id: {_shown(lf.relation_id)}")
        step = kg.outgoing if isinstance(lf, logform.Join) else kg.incoming
        out: set = set()
        for e in denotation(lf.sub, kg):
            for r, members in step(e):
                if r == lf.relation_id:
                    out |= members
        return frozenset(out)
    if isinstance(lf, logform.Intersect):
        return denotation(lf.left, kg) & denotation(lf.right, kg)
    raise TypeError(f"not a logical form: {lf!r}")
