"""The specifications the tests check the program against, each written once.

Standard library only, nothing from ``tensorparse`` (``test_oracle.py``
checks this): each function takes text (catalog maps or lines, triples of
ids, dataset lines, form text, tokens, feature keys) and computes its
answer from the definition, so a test compares the program's output text
with an answer the program had no part in.
"""

import json
import math
import re
from fractions import Fraction


def tokens(text):
    """The lowercased text split on every run of characters outside
    ``[a-z0-9]``, empty pieces dropped."""
    return [t for t in re.split(r"[^a-z0-9]+", text.lower()) if t]


def normalize(name):
    """A name's tokens joined by single spaces: ``""`` for a name with no
    letter or digit."""
    return " ".join(tokens(name))


def _fields(lines):
    """The tab-separated fields of each line that is neither blank nor a
    comment (``#`` after any leading whitespace)."""
    for line in lines:
        if line.strip() and not line.lstrip().startswith("#"):
            yield line.rstrip("\r\n").split("\t")


def read_catalog(lines):
    """``(names, aliases, phrases)`` of catalog lines: each entity id's name,
    the aliases of each entity whose line lists one, and each relation id's
    phrase."""
    names, aliases, phrases = {}, {}, {}
    for fields in _fields(lines):
        if fields[0] == "E":
            names[fields[1]] = fields[2]
            if any(fields[3].split("|")):
                aliases[fields[1]] = tuple(a for a in fields[3].split("|") if a)
        else:
            phrases[fields[1]] = fields[2]
    return names, aliases, phrases


def read_triples(lines):
    return [tuple(fields) for fields in _fields(lines)]


def read_dataset(lines):
    """``(pairs, error)`` of dataset lines: the ``(question, answers)`` pair
    of each line up to the first bad one, and ``None`` or that line's
    ``(message, line number)``.

    Each line, stripped, is blank or one ``json.loads`` document: an object
    whose ``"question"`` is a non-empty string and whose ``"answers"`` is a
    non-empty list of strings.
    """
    pairs = []
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            return pairs, (f"invalid JSON ({exc.msg})", number)
        except (ValueError, RecursionError) as exc:
            return pairs, (f"invalid JSON ({exc})", number)
        if not isinstance(obj, dict):
            return pairs, ("expected a JSON object", number)
        question, answers = obj.get("question"), obj.get("answers")
        if not isinstance(question, str) or not question:
            return pairs, ("missing or empty string field 'question'", number)
        if not isinstance(answers, list) or not answers or not all(
                isinstance(a, str) for a in answers):
            return pairs, ("missing or empty string-array field 'answers'", number)
        pairs.append((question, tuple(answers)))
    return pairs, None


class Graph:
    """A set of triples: ``forward[(s, r)]`` holds the objects of the
    triples ``(s, r, o)`` and ``backward[(o, r)]`` their subjects, each a
    frozenset, and a pair with no triple has no key."""

    def __init__(self, triples):
        self.triples = frozenset(map(tuple, triples))
        forward: dict = {}
        backward: dict = {}
        for s, r, o in self.triples:
            forward.setdefault((s, r), set()).add(o)
            backward.setdefault((o, r), set()).add(s)
        self.forward = {k: frozenset(v) for k, v in forward.items()}
        self.backward = {k: frozenset(v) for k, v in backward.items()}

    def denotation(self, form):
        """The entity ids the form text denotes, a frozenset: ``ent(e)`` is
        ``{e}``, ``join(r, x)`` the objects of ``r`` out of ``x``'s members,
        ``rev(r, x)`` the subjects of ``r`` into them, ``and(x, y)`` the
        members of both."""
        return frozenset(self._execute(parse(form)))

    def _execute(self, tree):
        if tree[0] == "ent":
            return {tree[1]}
        if tree[0] == "and":
            return self._execute(tree[1]) & self._execute(tree[2])
        index = self.forward if tree[0] == "join" else self.backward
        return {m for e in self._execute(tree[2]) for m in index.get((e, tree[1]), ())}


def parse(text):
    """The tree of a form's text: ``("ent", e)``, ``("join", r, x)``,
    ``("rev", r, x)`` or ``("and", x, y)``.

    The grammar is the one in ``tensorparse.logform``'s docstring, with
    ``", "`` between arguments; no id holds ``(``, ``)`` or ``,``, so an id
    ends at the first of those.  Text that is not one form raises
    ``ValueError``.
    """
    tree, rest = _parse(text)
    if rest:
        raise ValueError(f"not one form: {text!r}")
    return tree


def _parse(text):
    """``(tree, rest of text)`` for the form that begins ``text``."""
    head, _, rest = text.partition("(")
    if head == "ent":
        entity, rest = _ident(rest, ")")
        return ("ent", entity), rest
    if head in ("join", "rev"):
        relation, rest = _ident(rest, ", ")
        sub, rest = _parse(rest)
        return (head, relation, sub), _after(")", rest)
    if head == "and":
        left, rest = _parse(rest)
        right, rest = _parse(_after(", ", rest))
        return ("and", left, right), _after(")", rest)
    raise ValueError(f"not a form: {text!r}")


def _ident(text, end):
    ident, found, rest = text.partition(end)
    if not found or not ident or not set(ident).isdisjoint("(),"):
        raise ValueError(f"no id before {end!r} in {text!r}")
    return ident, rest


def _after(prefix, text):
    if not text.startswith(prefix):
        raise ValueError(f"no {prefix!r} at {text!r}")
    return text[len(prefix):]


def alias_index(names, aliases):
    """Each entity's normalized name and aliases but ``""``, each mapped to
    the ascending tuple of ids of the entities it names."""
    index: dict = {}
    for e, name in names.items():
        for key in {normalize(a) for a in (name, *aliases.get(e, ()))} - {""}:
            index.setdefault(key, []).append(e)
    return {key: tuple(sorted(ids)) for key, ids in index.items()}


def linked(query_tokens, catalog):
    """Ids of the entities that some span of the query, normalized, names,
    ascending; ``catalog`` is ``(names, aliases, phrases)``."""
    index = alias_index(*catalog[:2])
    n = len(query_tokens)
    return sorted({e for i in range(n) for j in range(i + 1, n + 1)
                   for e in index.get(normalize(" ".join(query_tokens[i:j])), ())})


def generate(query_tokens, catalog, graph):
    """``(form text, utterance tokens, denotation)`` of every template form
    over the entities linked in the query that denotes something in
    ``graph``, ascending by text, with no cap.

    T1 ``join(r, ent(e))`` and T2 ``rev(r, ent(e))`` for every relation of
    the catalog; for every ordered pair of distinct linked entities and
    every ``(r1, r2)`` whose inner intersection denotes something, T3
    ``join(r, and(rev(r1, ent(e1)), rev(r2, ent(e2))))`` for every ``r``.
    Each utterance is its template's text, tokenized.
    """
    names, _, phrases = catalog
    entities = linked(query_tokens, catalog)
    relations = sorted(phrases)
    utterances = {}
    for e in entities:
        for r in relations:
            utterances[f"join({r}, ent({e}))"] = f"the {phrases[r]} of {names[e]}"
            utterances[f"rev({r}, ent({e}))"] = f"the things whose {phrases[r]} is {names[e]}"
    for e1 in entities:
        for e2 in entities:
            for r1 in relations:
                for r2 in relations:
                    inner = f"and(rev({r1}, ent({e1})), rev({r2}, ent({e2})))"
                    if e1 == e2 or not graph.denotation(inner):
                        continue
                    thing = (f"the thing whose {phrases[r1]} is {names[e1]}"
                             f" and whose {phrases[r2]} is {names[e2]}")
                    for r in relations:
                        utterances[f"join({r}, {inner})"] = f"the {phrases[r]} of {thing}"
    denoted = {form: graph.denotation(form) for form in utterances}
    return [(form, tuple(tokens(utterances[form])), denoted[form])
            for form in sorted(utterances) if denoted[form]]


def f1(predicted, gold):
    """F1 of two lists of names as sets of normalized names, leaving out a
    name that normalizes to nothing: 0 when either set or their
    intersection is empty."""
    p = {normalize(name) for name in predicted} - {""}
    g = {normalize(name) for name in gold} - {""}
    hits = sum(1 for name in p if name in g)
    if hits == 0:
        return 0.0
    precision, recall = hits / len(p), hits / len(g)
    return 2 * precision * recall / (precision + recall)


def size_key(size):
    """The ``lf:`` key of a denotation of ``size`` members."""
    if size == 0:
        return "lf:denot.empty"
    if size == 1:
        return "lf:denot.size.1"
    if size == 2:
        return "lf:denot.size.2"
    if size < 6:
        return "lf:denot.size.3to5"
    return "lf:denot.size.6plus"


def feature_keys(query_tokens, utterance_tokens, size):
    """The keys of a (query, candidate) pair's binary vector, in order:
    ``p:<q>|<u>`` for each distinct query token ``q`` and then each distinct
    utterance token ``u``, each side in first-occurrence order, then the
    size key of the candidate's denotation."""
    utterance = dict.fromkeys(utterance_tokens)
    return [f"p:{q}|{u}" for q in dict.fromkeys(query_tokens) for u in utterance] + [
        size_key(size)]


def score(weights, query_tokens, utterance_tokens, size):
    """The weights of :func:`feature_keys` that ``weights`` holds, added in
    that order."""
    total = 0.0
    for key in feature_keys(query_tokens, utterance_tokens, size):
        if key in weights:
            total += weights[key]
    return total


# AdaGrad's guard: a step divides by the root of its squared gradients plus this.
ADA_EPS = 1e-8


def logistic(x):
    """1 / (1 + e^-x), through e^x where x is negative, so that no
    exponential overflows: the ranker's probability of a score."""
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def explicit_kernel(q1, u1, q2, u2):
    """The dot product of the explicit pair maps ``{(a, b): q[a] * u[b]}``
    of two (query, utterance) pairs of vectors."""
    pairs1 = {(a, b): q1[a] * u1[b] for a in q1 for b in u1}
    pairs2 = {(a, b): q2[a] * u2[b] for a in q2 for b in u2}
    return sum(v * pairs2[k] for k, v in pairs1.items() if k in pairs2)


def random_binary_vec(rng, vocab=50, density=0.3, varied=False):
    """``{"t<i>": 1.0}`` for each ``i`` below ``vocab`` whose draw falls
    below ``density``, or with ``varied`` below a second draw scaled to
    ``[0, 2 * density)``."""
    return {f"t{i}": 1.0 for i in range(vocab)
            if rng.random() < (density * rng.random() * 2 if varied else density)}


def psd_pivots(matrix):
    """The pivots of the exact LDLᵀ factorization of a square matrix, or
    ``None`` if it is not symmetric positive semidefinite.

    Entries are taken as fractions, so a Gram matrix of binary vectors,
    whose entries are integers, is decided with no rounding.  A symmetric
    matrix is positive semidefinite exactly when elimination meets no
    negative pivot and, at a zero pivot, only zeros in the pivot's row: a
    zero pivot beside ``b != 0`` leaves a principal minor of ``-b²``.
    """
    a = [[Fraction(x) for x in row] for row in matrix]
    n = len(a)
    if any(len(row) != n for row in a) or any(a[i][j] != a[j][i] for i in range(n) for j in range(i)):
        return None
    pivots = []
    for k in range(n):
        pivot = a[k][k]
        if pivot < 0 or (pivot == 0 and any(a[k][k + 1:])):
            return None
        pivots.append(pivot)
        if pivot == 0:
            continue  # its row and column are zeros: nothing to eliminate
        for i in range(k + 1, n):
            factor = a[i][k] / pivot
            for j in range(k + 1, n):
                a[i][j] -= factor * a[k][j]
    return pivots
