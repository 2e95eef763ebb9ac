import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tensorparse import features
from tensorparse.learner import Model, load_model, save_model

import oracle
from conftest import make_candidate


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
    assert features.tokenize(text) == oracle.tokens(text)


token_lists = st.lists(st.sampled_from(["a", "b", "zz", "0", "what", "denot"]), max_size=8)


@settings(max_examples=300)
@example(["a", "b"], ["x", "y"], 5)  # 3to5's last size; utterance-major order differs
@example(["a", "a", "b"], ["x", "x"], 6)  # 6plus's least size; repeats on each side
@example([], [], 0)
@given(token_lists, token_lists, st.integers(0, 100))
def test_assemble_is_the_oracle_map(query, utterance, size):
    out = features.assemble(query, make_candidate(utterance, range(size)))
    assert list(out) == oracle.feature_keys(query, utterance, size)
    assert all(type(v) is float and v == 1.0 for v in out.values())


def test_logical_form_features_are_the_oracle_bucket():
    for size in range(101):
        out = features.logical_form_features(make_candidate(denotation=range(size)))
        assert out == {oracle.size_key(size): 1.0}


@settings(max_examples=100, deadline=None)
@example("What 5 countries border ethiopia?", "the adjoins of 5", 7)
@given(st.one_of(token_text, st.text()), st.one_of(token_text, st.text()), st.integers(0, 100))
def test_every_assembled_key_loads_back(tmp_path_factory, query, utterance, size):
    """What assemble writes is what the model file's reader accepts."""
    vector = features.assemble(features.tokenize(query),
                               make_candidate(features.tokenize(utterance), range(size)))
    model = Model(weights={key: i / 8 for i, key in enumerate(vector)})
    path = tmp_path_factory.mktemp("model") / "m.model"
    save_model(model, path)
    assert load_model(path) == model


def test_unigram_features_binary():
    c = make_candidate(("x", "x", "y"), range(1))
    assert features.assemble(["a", "a", "b"], c) == {
        "p:a|x": 1.0, "p:a|y": 1.0, "p:b|x": 1.0, "p:b|y": 1.0, "lf:denot.size.1": 1.0,
    }


def test_tensor_pairs_border_example():
    c = make_candidate(("adjoins", "ethiopia"), range(2))
    assert list(features.assemble(["countries", "border"], c).items()) == [
        ("p:countries|adjoins", 1.0),
        ("p:countries|ethiopia", 1.0),
        ("p:border|adjoins", 1.0),
        ("p:border|ethiopia", 1.0),
        ("lf:denot.size.2", 1.0),
    ]


def test_tensor_pairs_zero_case():
    assert features.assemble(["a"], make_candidate((), range(1))) == {
        "lf:denot.size.1": 1.0,
    }


def test_tensor_pairs_dimensionality():
    c = make_candidate(("x", "y"), range(3))
    assert len(features.assemble(["a", "b", "c"], c)) == 3 * 2 + 1


@given(token_lists, token_lists)
def test_tensor_pairs_size_product(query, utterance):
    out = features.assemble(query, make_candidate(utterance, range(1)))
    assert len(out) == len(set(query)) * len(set(utterance)) + 1


@pytest.mark.parametrize(
    "size,name",
    [
        (0, "denot.empty"),
        (1, "denot.size.1"),
        (2, "denot.size.2"),
        (3, "denot.size.3to5"),
        (4, "denot.size.3to5"),
        (5, "denot.size.3to5"),
        (6, "denot.size.6plus"),
        (100, "denot.size.6plus"),
    ],
)
def test_logical_form_features_buckets(size, name):
    out = features.logical_form_features(make_candidate(denotation=range(size)))
    assert out == {"lf:" + name: 1.0}
    assert "lf:" + name in features.SIZE_KEYS


def test_the_open_bucket_starts_at_its_least_size():
    last = len(features.SIZE_KEYS) - 1
    keys = [next(iter(features.logical_form_features(make_candidate(denotation=range(n)))))
            for n in range(last - 1, last + 100)]
    assert keys[0] != features.SIZE_KEYS[last]
    assert set(keys[1:]) == {features.SIZE_KEYS[last]}


def test_assemble_union():
    c = make_candidate(("adjoins",), range(1))
    assert features.assemble(["borders"], c) == {
        "p:borders|adjoins": 1.0,
        "lf:denot.size.1": 1.0,
    }


def test_assemble_empty_query():
    c = make_candidate()
    assert features.assemble([], c) == {"lf:denot.empty": 1.0}


def test_key_kinds_disjoint():
    # pair keys and lf keys can never collide: distinct prefixes
    c = make_candidate(("empty",))
    assert list(features.assemble(["denot"], c)) == ["p:denot|empty", "lf:denot.empty"]
    assert not any(features.PAIR_KEY.fullmatch(key) for key in features.SIZE_KEYS)


def test_determinism_iteration_order():
    c = make_candidate(("y", "x"), range(1))
    first = list(features.assemble(["b", "a"], c))
    second = list(features.assemble(["b", "a"], c))
    assert first == second
