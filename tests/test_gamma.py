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


def test_sample_gamma_seed_stability():
    assert sample_gamma(2, 3, 6, 99).rows == ((109, 6), (672, 37))
    assert sample_gamma(3, 5, 12, 4).rows == ((126, -23425, -660), (625, -115124, -3250), (0, 45, 1))
