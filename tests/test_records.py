"""The records built per form and candidate write their fields into the
instance dict in an ``__init__`` of their own, and those built per dataset
line and report row keep them in class-body ``__slots__``, written through
the slots' member descriptors; everything else about them must be what
``@dataclass(frozen=True)`` generates."""

import dataclasses
import inspect
import pickle

import pytest

from tensorparse.dataset import DatasetExample
from tensorparse.evaluator import PerQueryResult
from tensorparse.logform import Candidate, EntityLit, Intersect, Join, ReverseJoin

LIT = EntityLit("brazil")
REV = ReverseJoin("adjoins", EntityLit("kenya"))

# each record with two sets of field values that differ in every field
RECORDS = [
    (EntityLit, ("brazil",), ("kenya",)),
    (Join, ("currency", LIT), ("adjoins", REV)),
    (ReverseJoin, ("currency", LIT), ("adjoins", REV)),
    (Intersect, (LIT, REV), (REV, LIT)),
    (Candidate, (Join("currency", LIT), ("the", "currency"), frozenset({"brazilian_real"})),
     (REV, ("the", "things"), frozenset({"sudan", "ethiopia"}))),
    (DatasetExample, ("what currency?", ("Brazilian real",)), ("where?", ("a", "b"))),
    (PerQueryResult, (0, "what currency?", "join(currency, ent(brazil))", 1.0, 1.0, 6),
     (3, "where?", None, 0.5, 0.75, 0)),
]

# the records that keep their fields in slots, with no instance dict
SLOTTED = (DatasetExample, PerQueryResult)

parametrized = pytest.mark.parametrize("cls, values, others", RECORDS,
                                       ids=[cls.__name__ for cls, _, _ in RECORDS])


def reference(cls):
    """A plain ``@dataclass(frozen=True)`` with ``cls``'s name and fields."""
    return dataclasses.make_dataclass(
        cls.__name__, [(f.name, f.type) for f in dataclasses.fields(cls)], frozen=True)


def names(cls):
    return [f.name for f in dataclasses.fields(cls)]


@parametrized
def test_positional_and_keyword_construction_agree(cls, values, others):
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names(cls), values)))
    assert by_position == by_keyword
    assert [getattr(by_position, n) for n in names(cls)] == list(values)
    if cls in SLOTTED:
        assert cls.__slots__ == tuple(names(cls))
        assert not hasattr(by_keyword, "__dict__")
    else:
        assert vars(by_keyword) == dict(zip(names(cls), values))
    params = inspect.signature(cls).parameters.values()
    ref_params = inspect.signature(reference(cls)).parameters.values()
    assert [(p.name, p.kind, p.default) for p in params] == \
        [(p.name, p.kind, p.default) for p in ref_params]


@parametrized
def test_missing_or_extra_arguments_are_type_errors(cls, values, others):
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, values[0])
    with pytest.raises(TypeError):
        cls(*values, unknown=1)
    with pytest.raises(TypeError):
        cls(*values, **{names(cls)[0]: values[0]})


@parametrized
def test_assignment_and_deletion_are_refused(cls, values, others):
    record = cls(*values)
    for name in names(cls) + ["unknown"]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, others[0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)
    assert record == cls(*values)


@parametrized
def test_eq_hash_and_repr_are_the_generated_ones(cls, values, others):
    ref = reference(cls)
    record = cls(*values)
    assert repr(record) == repr(ref(*values))
    assert hash(record) == hash(ref(*values))
    assert record == cls(*values) and not record != cls(*values)
    assert record != cls(*others)
    for i, other in enumerate(others):  # unequal when any one field differs
        mixed = values[:i] + (other,) + values[i + 1:]
        assert (record == cls(*mixed)) is (ref(*values) == ref(*mixed)) is False
    assert record != ref(*values)
    assert cls.__match_args__ == ref.__match_args__ == tuple(names(cls))


@parametrized
def test_replace_fields_and_pickle(cls, values, others):
    record = cls(*values)
    assert [(f.name, f.type) for f in dataclasses.fields(record)] == \
        [(f.name, f.type) for f in dataclasses.fields(reference(cls))]
    for i, (name, other) in enumerate(zip(names(cls), others)):
        replaced = dataclasses.replace(record, **{name: other})
        assert type(replaced) is cls
        assert replaced == cls(*(values[:i] + (other,) + values[i + 1:]))
    assert dataclasses.astuple(record) == dataclasses.astuple(reference(cls)(*values))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(record, protocol))
        assert type(copy) is cls and copy == record and hash(copy) == hash(record)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(copy, names(cls)[0], others[0])
