"""Output checks that do not trust the program under test.

Everything here is computed from the generator's files or from properties
the method must have: the graph is read from ``triples.tsv`` and
``catalog.tsv`` with this module's own parser, logical forms are executed by
this module's own interpreter, F1 and candidate scores are recomputed from
their definitions.  Each check returns a list of problems; an empty list
means the output passed.  ``test_checks.py`` plants a wrong output for every
check and shows that it is caught.
"""

from __future__ import annotations

import re

_TOKEN = re.compile(r"[a-z0-9]+")


def tokens(text: str) -> list[str]:
    return _TOKEN.findall(text.lower())


def normalize(name: str) -> str:
    return " ".join(tokens(name))


def f1(predicted_names, gold_names) -> float:
    p = {normalize(n) for n in predicted_names}
    g = {normalize(n) for n in gold_names}
    hits = len(p & g)
    if not hits:
        return 0.0
    precision, recall = hits / len(p), hits / len(g)
    return 2 * precision * recall / (precision + recall)


class Graph:
    """The generator's triples and entity names, indexed for execution."""

    def __init__(self, triple_lines, catalog_lines):
        self.names = {}
        for line in catalog_lines:
            fields = line.rstrip("\n").split("\t")
            if fields[0] == "E":
                self.names[fields[1]] = fields[2]
        self.forward: dict = {}
        self.backward: dict = {}
        for line in triple_lines:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            s, r, o = line.split("\t")
            self.forward.setdefault((s, r), set()).add(o)
            self.backward.setdefault((o, r), set()).add(s)

    @classmethod
    def from_files(cls, triples_path, catalog_path) -> "Graph":
        with open(triples_path, encoding="utf-8") as t, open(catalog_path, encoding="utf-8") as c:
            return cls(t, c)

    def execute(self, lf) -> frozenset:
        """Entity ids a logical form denotes, by this module's own reading."""
        kind = type(lf).__name__
        if kind == "EntityLit":
            return frozenset((lf.entity_id,))
        if kind in ("Join", "ReverseJoin"):
            index = self.forward if kind == "Join" else self.backward
            out = set()
            for e in self.execute(lf.sub):
                out |= index.get((e, lf.relation_id), set())
            return frozenset(out)
        if kind == "Intersect":
            return self.execute(lf.left) & self.execute(lf.right)
        raise TypeError(f"not a logical form: {lf!r}")

    def names_of(self, entity_ids) -> list[str]:
        return [self.names[e] for e in entity_ids]


def form_text(lf) -> str:
    """Serialized form, written out here from the form's fields."""
    kind = type(lf).__name__
    if kind == "EntityLit":
        return f"ent({lf.entity_id})"
    if kind == "Join":
        return f"join({lf.relation_id}, {form_text(lf.sub)})"
    if kind == "ReverseJoin":
        return f"rev({lf.relation_id}, {form_text(lf.sub)})"
    if kind == "Intersect":
        return f"and({form_text(lf.left)}, {form_text(lf.right)})"
    raise TypeError(f"not a logical form: {lf!r}")


def t3_parts(lf):
    """(r, (r1, e1), (r2, e2)) for a two-constraint form, else None."""
    if type(lf).__name__ != "Join" or type(lf.sub).__name__ != "Intersect":
        return None
    left, right = lf.sub.left, lf.sub.right
    return (lf.relation_id, (left.relation_id, left.sub.entity_id),
            (right.relation_id, right.sub.entity_id))


def mirror_forms(candidates) -> int:
    """Kept two-constraint forms whose operand-swapped twin is also kept."""
    parts = {p for p in (t3_parts(c.logical_form) for c in candidates) if p}
    return sum(1 for r, a, b in parts if (r, b, a) in parts)


def best_f1(graph: Graph, candidates, gold) -> float:
    return max((f1(graph.names_of(graph.execute(c.logical_form)), gold)
                for c in candidates), default=0.0)


# -- checks -----------------------------------------------------------------

def denotation_problems(graph: Graph, candidates) -> list[str]:
    """Every candidate's denotation equals this module's execution of it."""
    return [
        f"{form_text(c.logical_form)}: program {sorted(c.denotation)}"
        f" != expected {sorted(graph.execute(c.logical_form))}"
        for c in candidates
        if frozenset(c.denotation) != graph.execute(c.logical_form)
    ]


def reachable_problems(graph: Graph, question: str, raw_candidates, gold) -> list[str]:
    """With the cap lifted, the gold form is in the template space."""
    best = best_f1(graph, raw_candidates, gold)
    return [] if best == 1.0 else [f"{question!r}: best F1 {best} < 1 with the cap lifted"]


def bucket(size: int) -> str:
    if size == 0:
        return "denot.empty"
    if size <= 2:
        return f"denot.size.{size}"
    return "denot.size.3to5" if size <= 5 else "denot.size.6plus"


def score(weights: dict, query_tokens, candidate) -> float:
    """Sum of the weights of the query x utterance unigram pairs and the bucket.

    Terms are added in first-occurrence token order, the order the method
    defines its pair features in, so equal feature sets give equal floats.
    """
    total = 0.0
    utterance = dict.fromkeys(candidate.utterance_tokens)
    for q in dict.fromkeys(query_tokens):
        for u in utterance:
            w = weights.get(f"p:{q}|{u}")
            if w is not None:
                total += w
    w = weights.get("lf:" + bucket(len(candidate.denotation)))
    if w is not None:
        total += w
    return total


def argmax_problems(weights: dict, question: str, candidates, predicted) -> list[str]:
    """The prediction is the best-scoring candidate, ties to the smaller form."""
    query = tokens(question)
    expected = min(candidates, key=lambda c: (-score(weights, query, c), form_text(c.logical_form)),
                   default=None)
    if expected is None:
        return [] if predicted is None else [f"{question!r}: prediction without candidates"]
    if predicted is None or form_text(predicted.logical_form) != form_text(expected.logical_form):
        got = None if predicted is None else form_text(predicted.logical_form)
        return [f"{question!r}: predicted {got}, argmax is {form_text(expected.logical_form)}"]
    return []


def report_problems(report, min_average=None, oracle=None) -> list[str]:
    """Per query predicted F1 <= oracle F1, plus stated corpus properties."""
    problems = [
        f"query {r.index}: predicted F1 {r.predicted_f1} > oracle F1 {r.oracle_f1}"
        for r in report.per_query
        if r.predicted_f1 > r.oracle_f1
    ]
    if min_average is not None and report.average_f1 < min_average:
        problems.append(f"average F1 {report.average_f1} < {min_average}")
    if oracle is not None and report.oracle_f1 != oracle:
        problems.append(f"oracle F1 {report.oracle_f1} != {oracle}")
    return problems


def same_bytes_problems(first: bytes, other: bytes) -> list[str]:
    return [] if first == other else ["two trainings saved different model files"]
