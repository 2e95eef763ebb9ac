import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tensorparse import features
from tensorparse.logform import Candidate, EntityLit


def make_candidate(denotation_size, utterance_tokens=("the", "x", "of", "y")):
    return Candidate(
        logical_form=EntityLit("e"),
        utterance_tokens=tuple(utterance_tokens),
        denotation=frozenset(f"e{i}" for i in range(denotation_size)),
    )


def test_tokenize_question():
    assert features.tokenize("What 5 countries border ethiopia?") == [
        "what", "5", "countries", "border", "ethiopia",
    ]


def test_tokenize_apostrophes_split():
    assert features.tokenize("what's sweden's currency?") == [
        "what", "s", "sweden", "s", "currency",
    ]


def test_tokenize_empty():
    assert features.tokenize("") == []


# Text around the edges of tokenize: whitespace, punctuation, digits, and
# letters whose lowercase is not one ASCII letter or depends on context:
# the Kelvin sign lowercases to "k", "İ" to "i" and a combining dot, and a
# word-final "Σ" to "ς".
token_text = st.text(st.sampled_from(list("aZ9 \t\n.,'-_éßΣσİK") + ["\u212a", "\u0307"]),
                     max_size=6)


@example(["ΑΣ", "Σ"])
@example(["", " ", "\u212aelvin", "İstanbul"])
@given(st.lists(token_text, max_size=5))
def test_tokenize_of_space_joined_parts_is_their_tokens_concatenated(parts):
    """Generation assembles utterance tokens from the tokens of their parts."""
    assert features.tokenize(" ".join(parts)) == [t for p in parts for t in features.tokenize(p)]


@example("Ditipu")
@example("\u212aelvin")  # not ASCII, though it lowercases to ASCII letters
@example("a²")  # isalnum, but "²" is not one of tokenize's characters
@example("")
@given(st.one_of(token_text, st.text(st.sampled_from(list("aZ9²")), max_size=6), st.text()))
def test_normalize_phrase_is_its_tokens_joined(text):
    """An all-ASCII alphanumeric text skips the regex; every text normalizes
    to its tokens joined by single spaces."""
    assert features.normalize_phrase(text) == " ".join(features.tokenize(text))


@example("İ")  # lowercases to "i" and a combining dot above
@example("Straße")  # "ß" lowercases to itself, not one of tokenize's characters
@example("x²")  # a digit to str.isdigit(), not to the pattern
@example("\uff11\uff12 apples")  # fullwidth digits
@example("a\ud800b")  # a lone surrogate
@example("\u017fı")  # lowercase already, and equal to "s" and "i" only when case is ignored
@example("  --a--b  ")
@given(st.one_of(token_text, st.text()))
def test_tokenize_is_the_split_on_every_other_character(text):
    """Each maximal [a-z0-9] run of the lowercased text, as splitting on the
    runs of every other character and dropping empty pieces gives them."""
    assert features.tokenize(text) == [t for t in re.split(r"[^a-z0-9]+", text.lower()) if t]


def test_unigram_features_binary():
    assert features.unigram_features(["the", "adjoins", "of", "ethiopia"]) == {
        "the": 1.0, "adjoins": 1.0, "of": 1.0, "ethiopia": 1.0,
    }
    assert features.unigram_features(["a", "a", "b"]) == {"a": 1.0, "b": 1.0}
    assert features.unigram_features([]) == {}


def test_tensor_pairs_border_example():
    out = features.tensor_pair_features(
        {"countries": 1.0, "border": 1.0}, {"adjoins": 1.0, "ethiopia": 1.0}
    )
    assert out == {
        "p:countries|adjoins": 1.0,
        "p:countries|ethiopia": 1.0,
        "p:border|adjoins": 1.0,
        "p:border|ethiopia": 1.0,
    }


def test_tensor_pairs_zero_case():
    assert features.tensor_pair_features({}, {"a": 1.0}) == {}


def test_tensor_pairs_dimensionality():
    out = features.tensor_pair_features(
        {"a": 1.0, "b": 1.0, "c": 1.0}, {"x": 1.0, "y": 1.0}
    )
    assert len(out) == 6


unigram_vecs = st.dictionaries(
    st.text(alphabet="abcdefgh", min_size=1, max_size=4),
    st.floats(min_value=-5, max_value=5, allow_nan=False),
    max_size=8,
)


@given(unigram_vecs, unigram_vecs)
def test_tensor_pairs_size_product(a, b):
    assert len(features.tensor_pair_features(a, b)) == len(a) * len(b)


@given(unigram_vecs, unigram_vecs, st.floats(min_value=-3, max_value=3, allow_nan=False))
def test_tensor_pairs_bilinear(a, b, alpha):
    scaled = {k: alpha * v for k, v in a.items()}
    expected = {
        k: alpha * v for k, v in features.tensor_pair_features(a, b).items()
    }
    got = features.tensor_pair_features(scaled, b)
    assert got.keys() == expected.keys()
    for k in got:
        assert got[k] == pytest.approx(expected[k], abs=1e-12)


@pytest.mark.parametrize(
    "size,name",
    [
        (0, features.DENOT_EMPTY),
        (1, features.DENOT_SIZE_1),
        (2, features.DENOT_SIZE_2),
        (3, features.DENOT_SIZE_3TO5),
        (4, features.DENOT_SIZE_3TO5),
        (5, features.DENOT_SIZE_3TO5),
        (6, features.DENOT_SIZE_6PLUS),
        (100, features.DENOT_SIZE_6PLUS),
    ],
)
def test_logical_form_features_buckets(size, name):
    out = features.logical_form_features(make_candidate(size))
    assert out == {features.lf_key(name): 1.0}
    assert name in features.LF_FEATURE_NAMES


def test_the_open_bucket_starts_at_its_least_size():
    least = features.DENOT_SIZE_6PLUS_MIN
    assert features.denotation_size_bucket(least - 1) != features.DENOT_SIZE_6PLUS
    assert {features.denotation_size_bucket(n) for n in range(least, least + 100)} == \
        {features.DENOT_SIZE_6PLUS}


def test_assemble_union():
    c = make_candidate(1, utterance_tokens=("adjoins",))
    assert features.assemble(["borders"], c) == {
        "p:borders|adjoins": 1.0,
        "lf:denot.size.1": 1.0,
    }


def test_assemble_empty_query():
    c = make_candidate(0)
    assert features.assemble([], c) == {"lf:denot.empty": 1.0}


def test_key_kinds_disjoint():
    # pair keys and lf keys can never collide: distinct prefixes
    (pair,) = features.tensor_pair_features({"denot": 1.0}, {"empty": 1.0})
    lf = features.lf_key("denot.empty")
    assert (pair, lf) == ("p:denot|empty", "lf:denot.empty")


def test_determinism_iteration_order():
    a = {"b": 1.0, "a": 1.0}
    b = {"y": 1.0, "x": 1.0}
    first = list(features.tensor_pair_features(a, b))
    second = list(features.tensor_pair_features(a, b))
    assert first == second
