"""Value semantics of the public value classes: construction by keyword,
equality, hash and repr as a frozen dataclass defines them, refused
assignment, and pickle and deepcopy round trips."""

import copy
import pickle

import pytest

from sumsystems import (
    CentredSumSystem,
    CountResult,
    DivisorSumReport,
    PrimeFactorisation,
    SumAndDistanceSystem,
    SumSystem,
)

# (class, fields in constructor order, repr as a dataclass writes it, and
# the fields of an unequal value)
CASES = [
    (
        PrimeFactorisation,
        {"n": 360, "factors": ((2, 3), (3, 2), (5, 1))},
        "PrimeFactorisation(n=360, factors=((2, 3), (3, 2), (5, 1)))",
        {"n": 7, "factors": ((7, 1),)},
    ),
    (
        CountResult,
        {"value": 14, "method": "closed-form"},
        "CountResult(value=14, method='closed-form')",
        {"value": 14, "method": "brute-force"},
    ),
    (
        DivisorSumReport,
        {"n": 12, "m": 2, "ordered_plain": 1, "ordered_mobius": -2,
         "unordered_plain": 3, "unordered_mobius": 0},
        "DivisorSumReport(n=12, m=2, ordered_plain=1, ordered_mobius=-2, "
        "unordered_plain=3, unordered_mobius=0)",
        {"n": 12, "m": 2, "ordered_plain": 1, "ordered_mobius": -2,
         "unordered_plain": 3, "unordered_mobius": 1},
    ),
    (
        SumSystem,
        {"components": ((0, 1), (0, 2))},
        "SumSystem(components=((0, 1), (0, 2)))",
        {"components": ((0, 1),)},
    ),
    (
        CentredSumSystem,
        {"components": ((-1, 1), (-2, 0, 2))},
        "CentredSumSystem(components=((-1, 1), (-2, 0, 2)))",
        {"components": ((-1, 1),)},
    ),
    (
        SumAndDistanceSystem,
        {"N": 6, "components": ((1,), (2,)), "even_parts": (1,), "odd_parts": (2,)},
        "SumAndDistanceSystem(N=6, components=((1,), (2,)), even_parts=(1,), odd_parts=(2,))",
        {"N": 6, "components": ((1,), (2,)), "even_parts": (2,), "odd_parts": (1,)},
    ),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, fields, text, other", CASES, ids=IDS)
def test_keyword_construction_and_repr(cls, fields, text, other):
    value = cls(**fields)
    assert value == cls(*fields.values())
    assert {name: getattr(value, name) for name in fields} == fields
    assert repr(value) == text


@pytest.mark.parametrize("cls, fields, text, other", CASES, ids=IDS)
def test_equality_and_hash(cls, fields, text, other):
    value = cls(**fields)
    values = tuple(fields.values())
    assert hash(value) == hash(values)  # a frozen dataclass's hash
    assert value == cls(**fields) and not value != cls(**fields)
    # equal to no other type, a tuple of the same fields included
    assert value != values and values != value
    assert not value == values and not values == value
    assert value != cls(**other) and not value == cls(**other)


@pytest.mark.parametrize("cls, fields, text, other", CASES, ids=IDS)
def test_assignment_is_refused(cls, fields, text, other):
    value = cls(**fields)
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
    assert repr(value) == text


@pytest.mark.parametrize("cls, fields, text, other", CASES, ids=IDS)
def test_pickle_and_deepcopy(cls, fields, text, other):
    value = cls(**fields)
    copies = [pickle.loads(pickle.dumps(value, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.deepcopy(value), copy.copy(value)]
    for copied in copies:
        assert type(copied) is cls
        assert copied == value and hash(copied) == hash(value)
        assert repr(copied) == text
        with pytest.raises(AttributeError):
            setattr(copied, next(iter(fields)), 0)


def test_plain_never_equals_centred():
    plain, centred = SumSystem(((0,),)), CentredSumSystem(((0,),))
    assert plain.components == centred.components
    assert plain != centred and centred != plain


def test_cached_signature_survives_copies():
    pf = PrimeFactorisation(n=360, factors=((2, 3), (3, 2), (5, 1)))
    assert pf.signature == (3, 2, 1)
    for other in (pickle.loads(pickle.dumps(pf)), copy.deepcopy(pf)):
        assert other.signature == (3, 2, 1) and other == pf



SYSTEMS = CASES[3:]
SYSTEM_IDS = IDS[3:]

# per system class, field replacements its constructor refuses
REFUSED = {
    SumSystem: [{"components": [[0, 0.5]]}, {"components": []}, {"components": [[1, 0]]},
                {"components": [[-1, 0]]}],
    CentredSumSystem: [{"components": [[-1, 0.5]]}, {"components": [[-2, 1]]},
                       {"components": [[-2, -1, 0, 1, 2]]}],
    SumAndDistanceSystem: [{"N": 7}, {"components": ((0,), (2,))}, {"even_parts": (1, 2)},
                           {"odd_parts": (True,), "even_parts": (2,)}],
}


@pytest.mark.parametrize("cls, fields, text, other", SYSTEMS, ids=SYSTEM_IDS)
def test_replace_and_make_check_as_the_constructor_does(cls, fields, text, other):
    value = cls(**fields)
    assert value._replace() == value and type(value._replace()) is cls
    assert value._replace(**other) == cls(**other)
    assert cls._make(fields.values()) == value
    for change in REFUSED[cls]:
        with pytest.raises(ValueError):
            cls(**{**fields, **change})
        with pytest.raises(ValueError):
            value._replace(**change)
        with pytest.raises(ValueError):
            cls._make({**fields, **change}.values())


@pytest.mark.parametrize("cls, fields, text, other", CASES, ids=IDS)
def test_unpacks_and_indexes_as_a_tuple(cls, fields, text, other):
    value = cls(**fields)
    assert (*value,) == tuple(fields.values())
    assert len(value) == len(fields) and value[-1] == list(fields.values())[-1]
    assert value._asdict() == fields and value._fields == tuple(fields)
