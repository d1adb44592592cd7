import random

import hypothesis.strategies as st
import pytest
from hypothesis import given

from congruence_lab import (
    BadModulus,
    IntMatrix,
    NotUnimodular,
    gamma_level,
    gamma_member,
    sample_gamma,
    sample_sl,
)
from congruence_lab.intmat import random_elementary_rows

from tests.helpers import unimodular_matrices


def test_member_examples():
    x = IntMatrix([[1, 4], [0, 1]])
    assert gamma_member(x, 4)
    assert not gamma_member(x, 8)
    for t in range(5):
        assert gamma_member(sample_sl(2, 6, t), 1)


def test_member_validates():
    with pytest.raises(NotUnimodular):
        gamma_member(IntMatrix([[0, 1], [1, 0]]), 2)
    with pytest.raises(BadModulus):
        gamma_member(IntMatrix.identity(2), 0)


def test_level_examples():
    assert gamma_level(IntMatrix([[1, 4], [0, 1]])) == 4
    assert gamma_level(IntMatrix.identity(3)) == 0
    assert gamma_level(IntMatrix([[0, -1], [1, 0]])) == 1
    assert gamma_level(IntMatrix([[-1, 0], [0, -1]])) == 2


def test_level_of_scaled_words_divisible_by_scale():
    for t in range(40):
        x = sample_gamma(2, 3, 5, seed=t)
        if x.is_identity():
            continue
        assert gamma_level(x) % 3 == 0


def test_level_is_max_membership_level():
    checked = 0
    for t in range(30):
        x = sample_gamma(2, 6, 3, seed=100 + t)
        lvl = gamma_level(x)
        if lvl == 0 or lvl > 1000:
            continue
        checked += 1
        assert lvl == max(N for N in range(1, 1001) if gamma_member(x, N))
    assert checked > 10


@given(unimodular_matrices(2), st.integers(1, 30), st.integers(1, 6))
def test_membership_respects_divisibility(x, N, mult):
    # membership at a multiple of N implies membership at N
    if gamma_member(x, N * mult):
        assert gamma_member(x, N)


def test_gamma_closed_under_product_and_inverse():
    for t in range(25):
        x = sample_gamma(2, 4, 4, seed=t)
        y = sample_gamma(2, 4, 4, seed=1000 + t)
        assert gamma_member(x * y, 4)
        assert gamma_member(x.inverse(), 4)


def test_sample_gamma_lands_in_gamma():
    for N in (2, 3, 5):
        for t in range(10):
            assert gamma_member(sample_gamma(2, N, 4, seed=t), N)


def test_samplers_state_the_same_preconditions():
    # both samplers refuse n = 0 and length < 0 with one message, before any draw
    for call in (
        lambda: sample_sl(0, 3, 1),
        lambda: sample_gamma(0, 2, 3, 1),
        lambda: sample_gamma(0, 2, 0, 1),
    ):
        with pytest.raises(ValueError, match=r"^dimension must be >= 1$"):
            call()
    for call in (lambda: sample_sl(2, -1, 1), lambda: sample_gamma(2, 2, -1, 1)):
        with pytest.raises(ValueError, match=r"^length must be >= 0$"):
            call()
    with pytest.raises(BadModulus):  # the level is still checked first
        sample_gamma(0, 0, -1, 1)


def test_samplers_take_n_and_length_through_index():
    # the level N too: a TypeError on every Python, before the level check and
    # before any draw; bool is an int, so True still means 1
    rng = random.Random(0)
    for call in (
        lambda: sample_sl(1.0, 3, 1),
        lambda: sample_sl(2.0, 3, 1),
        lambda: sample_sl(0.5, 3, 1),
        lambda: sample_sl(2, 3.0, 1),
        lambda: sample_sl(1, -0.5, 1),
        lambda: sample_gamma(1.5, 0, 3, 1),
        lambda: sample_gamma(2.0, 3, 2, 1),
        lambda: sample_gamma(2, 3, 2.0, 1),
        lambda: sample_gamma(2, 0.5, 3, 0),
        lambda: sample_gamma(2, 2.5, 3, 0),
        lambda: random_elementary_rows(2.0, 3, rng),
        lambda: random_elementary_rows(1, 0.0, rng),
    ):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            call()
    assert rng.getstate() == random.Random(0).getstate()
    assert sample_sl(True, 3, 1) == IntMatrix.identity(1)
    assert sample_sl(2, True, 5) == sample_sl(2, 1, 5)
    assert sample_gamma(2, 3, True, 5) == sample_gamma(2, 3, 1, 5)
    assert sample_gamma(2, True, 3, 5) == sample_gamma(2, 1, 3, 5)
    assert random_elementary_rows(True, 2, rng) == ((1,),)


def test_sample_gamma_seed_stability():
    assert sample_gamma(2, 3, 6, 99).rows == ((109, 6), (672, 37))
    assert sample_gamma(3, 5, 12, 4).rows == ((126, -23425, -660), (625, -115124, -3250), (0, 45, 1))
