import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tensorparse import kgraph, logform
from tensorparse.logform import (
    Candidate,
    EntityLit,
    GenConfig,
    Intersect,
    Join,
    LfParseError,
    ReverseJoin,
    UnsupportedShapeError,
    canonical_utterance,
    generate_candidates,
    parse,
    serialize,
)

# every id a catalog accepts
ids = st.text(st.characters(exclude_characters=logform.ID_FORBIDDEN), min_size=1, max_size=6)

forms = st.recursive(
    st.builds(EntityLit, ids),
    lambda sub: st.one_of(
        st.builds(Join, ids, sub),
        st.builds(ReverseJoin, ids, sub),
        st.builds(Intersect, sub, sub),
    ),
    max_leaves=6,
)


def test_serialize_join():
    lf = Join("currency", EntityLit("brazil"))
    assert serialize(lf) == "join(currency, ent(brazil))"


def test_parse_entity():
    assert parse("ent(brazil)") == EntityLit("brazil")


def test_parse_nested():
    text = "join(character, and(rev(actor, ent(brad_pitt)), rev(film, ent(troy))))"
    assert serialize(parse(text)) == text


@given(forms)
def test_round_trip(lf):
    assert parse(serialize(lf)) == lf


def test_id_forbidden_holds_every_space():
    spaces = {c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()}
    assert spaces <= logform.ID_FORBIDDEN


@pytest.mark.parametrize(
    "text",
    [
        "join(currency)",  # arity
        "ent()",
        "frob(x)",
        "join(currency, ent(brazil)) extra",
        "and(ent(a))",
        "",
        "ent(brazil",
    ],
)
def test_parse_errors(text):
    with pytest.raises(LfParseError) as exc:
        parse(text)
    assert exc.value.position >= 0


def test_utterance_t1(mini_kg):
    lf = Join("adjoins", EntityLit("ethiopia"))
    assert canonical_utterance(lf, mini_kg) == "the adjoins of ethiopia"


def test_utterance_t2(mini_kg):
    lf = ReverseJoin("currency", EntityLit("brazil"))
    assert canonical_utterance(lf, mini_kg) == "the things whose currency is brazil"


def test_utterance_t3(mini_kg):
    lf = Join(
        "character",
        Intersect(
            ReverseJoin("actor", EntityLit("brad_pitt")),
            ReverseJoin("film", EntityLit("troy")),
        ),
    )
    assert canonical_utterance(lf, mini_kg) == (
        "the character of the thing whose actor is Brad Pitt"
        " and whose film is Troy"
    )


def test_utterance_rejects_non_template(mini_kg):
    with pytest.raises(UnsupportedShapeError):
        canonical_utterance(
            Intersect(EntityLit("brazil"), EntityLit("kenya")), mini_kg
        )
    with pytest.raises(UnsupportedShapeError):
        canonical_utterance(
            Join("currency", Join("currency", EntityLit("brazil"))), mini_kg
        )


def test_generate_currency_query(mini_kg):
    cands = generate_candidates(
        ["what", "currency", "does", "brazil", "use"], mini_kg, GenConfig()
    )
    by_form = {serialize(c.logical_form): c for c in cands}
    target = by_form["join(currency, ent(brazil))"]
    assert target.utterance_tokens == ("the", "currency", "of", "brazil")
    assert target.denotation == {"brazilian_real"}


def test_generate_no_link(mini_kg):
    assert generate_candidates(["hello", "world"], mini_kg, GenConfig()) == []


def test_generate_cap(mini_kg):
    cands = generate_candidates(
        ["what", "currency", "does", "brazil", "use"],
        mini_kg,
        GenConfig(max_candidates=1),
    )
    assert len(cands) <= 1


def test_generate_deterministic_and_sorted(mini_kg):
    tokens = ["who", "did", "brad", "pitt", "play", "in", "troy"]
    first = generate_candidates(tokens, mini_kg, GenConfig())
    second = generate_candidates(tokens, mini_kg, GenConfig())
    assert first == second
    serialized = [serialize(c.logical_form) for c in first]
    assert serialized == sorted(serialized)
    assert len(serialized) == len(set(serialized))


def test_generate_two_constraint(mini_kg):
    tokens = ["who", "did", "brad", "pitt", "play", "in", "troy"]
    cands = generate_candidates(tokens, mini_kg, GenConfig())
    forms = {serialize(c.logical_form): c for c in cands}
    key = "join(character, and(rev(actor, ent(brad_pitt)), rev(film, ent(troy))))"
    assert key in forms
    assert forms[key].denotation == {"achilles"}


def test_generate_two_constraint_disabled(mini_kg):
    tokens = ["who", "did", "brad", "pitt", "play", "in", "troy"]
    cands = generate_candidates(
        tokens, mini_kg, GenConfig(enable_two_constraint=False)
    )
    assert all(
        not isinstance(c.logical_form.sub, Intersect)
        for c in cands
        if isinstance(c.logical_form, Join)
    )


def test_generated_forms_are_template_shaped(mini_kg):
    tokens = ["who", "did", "brad", "pitt", "play", "in", "troy"]
    for c in generate_candidates(tokens, mini_kg, GenConfig()):
        # must not raise: every generated form has a T1/T2/T3 shape
        canonical_utterance(c.logical_form, mini_kg)
        assert parse(serialize(c.logical_form)) == c.logical_form


def test_cached_denotation_matches_fresh(mini_kg):
    tokens = ["who", "did", "brad", "pitt", "play", "in", "troy"]
    for c in generate_candidates(tokens, mini_kg, GenConfig()):
        assert c.denotation == kgraph.denotation(c.logical_form, mini_kg)


def test_empty_inner_intersection_pruned(mini_kg):
    # brazil and troy never co-constrain any node, so no T3 form pairs them
    tokens = ["brazil", "troy"]
    for c in generate_candidates(tokens, mini_kg, GenConfig()):
        lf = c.logical_form
        if isinstance(lf, Join) and isinstance(lf.sub, Intersect):
            assert kgraph.denotation(lf.sub, mini_kg)


def test_gen_config_validation():
    with pytest.raises(ValueError):
        GenConfig(max_candidates=0)
    with pytest.raises(ValueError):
        GenConfig(max_span_length=0)


def test_empty_query_rejected(mini_kg):
    with pytest.raises(ValueError):
        generate_candidates([], mini_kg, GenConfig())
