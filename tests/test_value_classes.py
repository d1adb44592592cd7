"""The public value classes behave as the frozen records they replace.

IntMatrix, ModMatrix, TracelessMatrix, OrderResult, CongruenceWitness and
ElementaryWord are written out by hand (intmat.Frozen) so that the package
does not import dataclasses. They share one record protocol: __reduce__
names a record's stored state as (intmat._rebuild, (cls, *state)), and
equality, hashing and pickle all read that state; copy and deepcopy return
the record itself, which is immutable all the way down. These tests pin
what a reader of the old records could rely on: reprs, keyword
construction, FrozenInstanceError on assignment and deletion, equality and
hashing by value and class, and copy, deepcopy and pickle round-trips, with
_rebuild named once in a pickle however many records it holds. The reprs were
recorded from the dataclass implementation.
"""

import copy
import dataclasses
import pickle
import pickletools

import pytest

from congruence_lab import (
    CongruenceWitness,
    ElementaryWord,
    IntMatrix,
    ModMatrix,
    OrderResult,
    TracelessMatrix,
    decompose_mod,
    matrix_order,
    witness_p,
    witness_rf,
)
from congruence_lab import intmat

from tests.helpers import sl_group

S = ((0, -1), (1, 0))  # the order-4 rotation


def _values():
    return [
        IntMatrix(S),
        ModMatrix(((0, 4), (1, 0)), 5),
        TracelessMatrix(((1, 2), (3, 4)), 5),
        matrix_order(IntMatrix(S)),
        matrix_order(IntMatrix(((1, 1), (0, 1)))),
        witness_rf(IntMatrix(((1, 6), (0, 1)))),
        witness_p(IntMatrix(((1, 9), (0, 1))), 3),
        ElementaryWord(3, [(1, 2, 5)], 7),
        ElementaryWord(n=2, gens=(), modulus=None),
    ]


REPRS = [
    "IntMatrix(rows=((0, -1), (1, 0)))",
    "ModMatrix(rows=((0, 4), (1, 0)), modulus=5)",
    "TracelessMatrix(rows=((1, 2), (3, 4)), modulus=5)",
    "OrderResult(value=4)",
    "OrderResult(value=None)",
    "CongruenceWitness(kind='residual-finite', prime=5, level=5, quotient_order=120, "
    "image=ModMatrix(rows=((1, 1), (0, 1)), modulus=5), target=IntMatrix(rows=((1, 6), (0, 1))))",
    "CongruenceWitness(kind='residual-p-finite', prime=3, level=27, quotient_order=729, "
    "image=TracelessMatrix(rows=((0, 1), (0, 0)), modulus=3), target=IntMatrix(rows=((1, 9), (0, 1))))",
    "ElementaryWord(n=3, gens=(_Gen(i=1, j=2, a=5),), modulus=7)",
    "ElementaryWord(n=2, gens=(), modulus=None)",
]


def test_reprs_are_those_of_the_records():
    assert [repr(v) for v in _values()] == REPRS
    word = decompose_mod(ModMatrix(((0, 4), (1, 0)), 5))
    assert repr(word) == (
        "ElementaryWord(n=2, gens=(_Gen(i=2, j=1, a=2), _Gen(i=1, j=2, a=4), _Gen(i=2, j=1, a=2), "
        "_Gen(i=1, j=2, a=4), _Gen(i=2, j=1, a=4), _Gen(i=1, j=2, a=1), _Gen(i=2, j=1, a=4)), modulus=5)"
    )


@pytest.mark.parametrize("v", _values(), ids=lambda v: type(v).__name__)
def test_records_are_frozen(v):
    # modulus is also a slot of IntMatrix, which leaves it out of __match_args__
    for name in (*type(v).__match_args__, "modulus", "other"):
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(v, name, 1)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(v, name)


def test_equality_and_hash_follow_value_and_class():
    for a, b in zip(_values(), _values()):
        assert a is not b and a == b and hash(a) == hash(b)
    assert len(set(_values())) == len(_values())
    assert OrderResult(4) != 4 and OrderResult(None) != OrderResult(4)
    assert ElementaryWord(2, [(1, 2, 1)]) != ElementaryWord(2, [(1, 2, 1)], 5)
    w = witness_rf(IntMatrix(((1, 6), (0, 1))))
    assert w != CongruenceWitness(*(getattr(w, f) for f in w.__match_args__[:-1]), IntMatrix(((1, 1), (0, 1))))
    # Records of different classes are unequal even over the same fields.
    assert IntMatrix(((1,),)) != ModMatrix(((1,),), 2) != TracelessMatrix(((0,),), 2)


def test_keyword_construction():
    assert OrderResult(value=6) == OrderResult(6)
    assert ElementaryWord(n=2, gens=[(1, 2, 7)], modulus=5) == ElementaryWord(2, [(1, 2, 2)], 5)
    assert ElementaryWord(n=2, gens=[(2, 1, -1)]).modulus is None
    w = witness_p(IntMatrix(((1, 9), (0, 1))), 3)
    fields = {f: getattr(w, f) for f in ("kind", "prime", "level", "quotient_order", "image", "target")}
    assert CongruenceWitness(**fields) == w
    assert ModMatrix(rows=((1, 2), (3, 5)), modulus=4) == ModMatrix(((1, 2), (3, 1)), 4)
    assert IntMatrix(rows=((1,),)) == IntMatrix(((1,),))


@pytest.mark.parametrize("v", _values(), ids=lambda v: type(v).__name__)
def test_copies_and_pickles_are_equal_values(v):
    for twin in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
        assert type(twin) is type(v) and twin == v and hash(twin) == hash(v) and repr(twin) == repr(v)
    assert copy.copy(v) is v and copy.deepcopy(v) is v


def test_pickles_name_one_rebuild_and_no_bound_method():
    for v in _values():
        assert v.__reduce__()[0] is intmat._rebuild
        names = {arg for _, arg, _ in pickletools.genops(pickle.dumps(v)) if isinstance(arg, str)}
        assert "_rebuild" in names and "getattr" not in names
    group = sl_group(3, 4)
    data = pickle.dumps(group)
    assert sum(arg == "_rebuild" for _, arg, _ in pickletools.genops(data)) == 1
    twin = pickle.loads(data)
    assert twin == group
    assert all(type(m) is ModMatrix and not hasattr(m, "__dict__") for m in twin)
