"""Tokenization and the feature map.

A feature vector is a plain ``dict[str, float]`` whose every value is 1.0.
:func:`assemble` gives the vector of a (query, candidate) pair: the binary
unigram vectors of the query and of the candidate's utterance tensored
together, one ``p:<queryTerm>|<utteranceTerm>`` key per pair of distinct
tokens, then the ``lf:`` key of the candidate's denotation size.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from .logform import Candidate

_TOKEN = re.compile(r"[a-z0-9]+")

PAIR_PREFIX = "p:"
# Every pair key assemble writes: a token on each side of the bar.
PAIR_KEY = re.compile(rf"{PAIR_PREFIX}{_TOKEN.pattern}\|{_TOKEN.pattern}")

# The lf: key of a denotation of n members is SIZE_KEYS[min(n, len(SIZE_KEYS) - 1)].
# No generated form denotes nothing, so no model trains the size-0 key.  It
# stays a known key because older v2 model files hold it, and because the
# benchmark's bucket oracle (pipebench checks.bucket(0)) names it.
SIZE_KEYS = (
    "lf:denot.empty",
    "lf:denot.size.1",
    "lf:denot.size.2",
    "lf:denot.size.3to5",
    "lf:denot.size.3to5",
    "lf:denot.size.3to5",
    "lf:denot.size.6plus",
)


def tokenize(text: str) -> list[str]:
    """Lowercase, then each maximal run of ``[a-z0-9]``: the text split on
    every other character, empty pieces dropped."""
    return _TOKEN.findall(text.lower())


def normalize_phrase(text: str) -> str:
    """Canonical single-spaced form used for alias and answer matching."""
    if text.isascii() and text.isalnum():
        # all of [A-Za-z0-9], so tokenize gives one token: the text lowercased
        return text.lower()
    return " ".join(tokenize(text))


def logical_form_features(candidate: "Candidate") -> dict:
    """The ``lf:`` key of the candidate's denotation size, value 1.0."""
    return {SIZE_KEYS[min(len(candidate.denotation), len(SIZE_KEYS) - 1)]: 1.0}


def assemble(query_tokens: Iterable[str], candidate: "Candidate") -> dict:
    """The vector of a (query, candidate) pair, every value 1.0.

    A ``p:<q>|<u>`` key for each distinct query token ``q`` and distinct
    utterance token ``u``, query-major, each side in first-occurrence
    order; then the logical-form features, whose ``lf:`` keys no pair key
    can equal.
    """
    utterance = dict.fromkeys(candidate.utterance_tokens)
    out = {}
    for q in dict.fromkeys(query_tokens):
        prefix = PAIR_PREFIX + q + "|"
        for u in utterance:
            out[prefix + u] = 1.0
    out.update(logical_form_features(candidate))
    return out
