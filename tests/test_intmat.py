import hashlib
import itertools
import math
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given

from congruence_lab import (
    DimensionMismatch,
    IntMatrix,
    ModMatrix,
    NotUnimodular,
    ParseError,
    decompose_mod,
    sample_sl,
)
from congruence_lab.intmat import (
    _det_bareiss,
    cofactors,
    det_of_rows,
    identity_rows,
    power_below,
    power_of_rows,
    product_of_rows,
    random_elementary_rows,
)

from tests.helpers import (
    det_permutation_oracle,
    int_matrices,
    random_elementary_rows_by_randrange,
    unimodular_matrices,
)


def test_product_example():
    a = IntMatrix([[1, 1], [0, 1]])
    b = IntMatrix([[1, 0], [1, 1]])
    assert a * b == IntMatrix([[2, 1], [1, 1]])


def test_identity_is_neutral():
    x = IntMatrix([[3, 5], [1, 2]])
    ident = IntMatrix.identity(2)
    assert ident * x == x
    assert x * ident == x


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        IntMatrix.identity(2) * IntMatrix.identity(3)


@given(int_matrices(2), int_matrices(2), int_matrices(2))
def test_multiplication_associative(x, y, z):
    assert (x * y) * z == x * (y * z)


@given(int_matrices(3, bound=6), int_matrices(3, bound=6))
def test_det_multiplicative(x, y):
    assert (x * y).det() == x.det() * y.det()


@pytest.mark.parametrize(
    "rows,expected",
    [
        (((0, -1), (1, 0)), 1),
        (((2, 1), (1, 1)), 1),
        (((1, 1), (0, 1)), 1),
        (((3, 0), (0, 2)), 6),
    ],
)
def test_det_examples(rows, expected):
    assert IntMatrix(rows).det() == expected


def test_det_identity_any_n():
    for n in range(1, 8):
        assert IntMatrix.identity(n).det() == 1


def test_identity_rows_built_once_per_n():
    for n in range(1, 7):
        assert identity_rows(n) is identity_rows(n)
        unit = [[0] * n for _ in range(n)]
        for i in range(n):
            unit[i][i] = 1
        assert identity_rows(n) == tuple(map(tuple, unit))


@given(st.integers(1, 5).flatmap(lambda n: int_matrices(n, bound=7)))
def test_det_matches_permutation_oracle(x):
    assert x.det() == det_permutation_oracle(x.rows)


@given(st.integers(1, 5).flatmap(lambda n: int_matrices(n, bound=7)))
def test_det_cofactor_and_bareiss_agree(x):
    # det() takes closed forms up to 4x4, so test Bareiss itself at every n
    assert _det_bareiss(x.rows) == det_permutation_oracle(x.rows)


def test_det_closed_form_at_4x4_matches_the_permutation_oracle():
    rng = random.Random(44)
    cases = [tuple(tuple(rng.randint(-bound, bound) for _ in range(4)) for _ in range(4))
             for bound in (1, 9, 10**6, 10**30) for _ in range(50)]
    x = cases[-1]
    cases += [
        x[:2] + ((0, 0, 0, 0),) + x[3:],  # a zero row
        x[:3] + (x[1],),  # two equal rows
        # rank 2: the last two rows are combinations of the first two
        x[:2] + (tuple(3 * a - b for a, b in zip(*x[:2])), tuple(-a + 10**29 * b for a, b in zip(*x[:2]))),
    ]
    for rows in cases:
        assert det_of_rows(rows) == det_permutation_oracle(rows)
    assert [det_of_rows(rows) for rows in cases[-3:]] == [0, 0, 0]


def _structured_det_cases(n: int, N: int) -> list:
    """Structured n x n cases whose det mod N is known for n > 1: det 1, a row
    of multiples of N, det 3 (the last row is x[0] + 3 x[-1]), two rows equal
    mod N and det 5."""
    x = sample_sl(n, 3 * n, n).rows
    return [
        x,
        (tuple(N * e for e in x[0]),) + x[1:],
        x[:-1] + (tuple(a + 3 * b for a, b in zip(x[0], x[-1])),),
        x[:-1] + (tuple(a * (N + 1) for a in x[0]),),
        (tuple(a * 5 for a in x[0]),) + x[1:],
    ]


def test_det_mod_n_matches_the_permutation_oracle_and_the_exact_det():
    # The det mod N of ModMatrix at every n, against the Leibniz det up to 6x6
    # and at 12x12 and 20x20 against sympy's. Random matrices are seldom det
    # 1; the structured ones have known dets, 1, 3 and 5 or singular mod N.
    rng = random.Random(61)
    for N in (2, 4, 12, 360, 97, 3**20, 2**61 - 1):
        for n in range(1, 10):
            cases = [tuple(tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(n))
                     for bound in (1, 9, 10**6)]
            for rows in cases + _structured_det_cases(n, N):
                d = ModMatrix(rows, N).det()
                assert 0 <= d < N and d == det_of_rows(rows) % N
                if n <= 6:
                    assert d == det_permutation_oracle(rows) % N
    large = [(n, N, _structured_det_cases(n, N)) for n in (12, 20) for N in (360, 2**61 - 1)]
    for n, N, cases in large:
        assert [ModMatrix(rows, N).det() for rows in cases] == [1, 0, 3, 0, 5]
    sympy = pytest.importorskip("sympy")
    for n, N, cases in large:
        for rows in cases:
            assert ModMatrix(rows, N).det() == sympy.Matrix(rows).det(method="berkowitz") % N
    rows = ((9, -7, 6, -1, -8, -9), (-5, 9, 6, 2, 1, -9), (-1, 6, -3, 4, 8, 8),
            (-6, -3, 9, 8, -1, -7), (4, 1, -7, 2, 4, -1), (5, -6, -3, 0, -6, -8))
    assert det_permutation_oracle(rows) == 317440  # 280 mod 360
    with pytest.raises(NotUnimodular, match=r"^determinant is 280 mod 360, expected 1$"):
        decompose_mod(ModMatrix(rows, 360))


def test_inverse_example():
    x = IntMatrix([[2, 1], [1, 1]])
    assert x.inverse() == IntMatrix([[1, -1], [-1, 2]])
    assert x * x.inverse() == IntMatrix.identity(2)


def test_inverse_identity():
    for n in (1, 2, 3, 5):
        assert IntMatrix.identity(n).inverse() == IntMatrix.identity(n)


def test_inverse_requires_det_one():
    with pytest.raises(NotUnimodular):
        IntMatrix([[0, 1], [1, 0]]).inverse()


@pytest.mark.parametrize("n", range(2, 7))
@given(data=st.data())
def test_inverse_roundtrip(n, data):
    x = data.draw(unimodular_matrices(n))
    assert x * x.inverse() == IntMatrix.identity(n)
    assert x.inverse().inverse() == x


def _adjugate(x):
    """The inverse's old route, as an oracle: column j of the adjugate is the
    cofactors of the other rows, signed for moving row j last."""
    n, rows = x.n, x.rows
    cols = [[(-1) ** (n - 1 - j) * c for c in cofactors(rows[:j] + rows[j + 1 :])] for j in range(n)]
    return IntMatrix(tuple(zip(*cols)))


def _det_one_signed_permutations(n):
    """Every signed permutation matrix of det 1, the last sign fixed by the
    parity of the permutation: their zero pivots force row swaps."""
    for perm in itertools.permutations(range(n)):
        parity = (-1) ** sum(a > b for i, a in enumerate(perm) for b in perm[i + 1 :])
        for head in itertools.product((1, -1), repeat=n - 1):
            signs = (*head, parity * math.prod(head))
            yield IntMatrix(tuple(tuple(s * (j == p) for j in range(n)) for p, s in zip(perm, signs)))


def test_inverse_is_the_adjugate():
    for x in (sample_sl(n, 3 * n, s) for n in range(1, 13) for s in range(2)):
        inv, one = x.inverse(), IntMatrix.identity(x.n)
        assert inv == _adjugate(x)
        assert x * inv == one == inv * x
        for k in (1, 2, 3):
            assert x**-k == inv**k
    # A signed permutation matrix is orthogonal, so its adjugate is its transpose.
    perms = [x for n in range(1, 6) for x in _det_one_signed_permutations(n)]
    assert len(perms) == 1 + 4 + 24 + 192 + 1920  # n! * 2^n / 2
    assert all(x.inverse().rows == tuple(zip(*x.rows)) for x in perms)  # inverse raises unless det is 1
    assert all(x.inverse() == _adjugate(x) for x in perms if x.n <= 4)


@pytest.mark.parametrize("d", [0, -1, 2])
def test_inverse_refuses_other_determinants(d):
    for n in range(1, 7):
        # diag(d, 1, ..., 1) times an element of SL_n(Z) has determinant d
        head = tuple(tuple(d if i == j == 0 else int(i == j) for j in range(n)) for i in range(n))
        x = IntMatrix(head) * sample_sl(n, 2 * n, n)
        with pytest.raises(NotUnimodular, match=rf"^determinant is {d}, expected 1$"):
            x.inverse()


def test_inverse_refuses_a_pivot_free_column():
    # g * s, where s is 1 but with column k replaced by (1, ..., k, 0, ..., 0):
    # columns 0..k-1 are g's, independent, and column k is in their span, so
    # the elimination finds its first column without a pivot at k: det 0.
    for n in range(1, 7):
        g = sample_sl(n, 2 * n, n)
        for k in range(n):
            s = tuple(tuple(i + 1 if j == k and i < k else int(i == j != k) for j in range(n)) for i in range(n))
            x = g * IntMatrix(s)
            assert [r[k] for r in x.rows] == [sum((i + 1) * r[i] for i in range(k)) for r in x.rows]
            with pytest.raises(NotUnimodular, match=r"^determinant is 0, expected 1$"):
                x.inverse()


def _naive_product(a, b, N):
    """The m x n by n x n product by the triple loop, reduced mod N when N is given."""
    m, n = len(a), len(b)
    out = [[0] * n for _ in range(m)]
    for i in range(m):
        for j in range(n):
            for k in range(n):
                out[i][j] += a[i][k] * b[k][j]
    return tuple(tuple(e if N is None else e % N for e in r) for r in out)


def _rows(m, n, bound):
    row = st.tuples(*[st.integers(-bound, bound)] * n)
    return st.tuples(*[row] * m)


# m = 1 and n + 3 rows as well as square: _sl_rows multiplies N^n rows by an n x n table
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(st.sampled_from((1, n, n + 3)).flatmap(lambda m: _rows(m, n, 50)), _rows(n, n, 50))
    ),
    st.none() | st.integers(2, 60),
)
def test_product_of_rows_matches_triple_loop(pair, N):
    a, b = pair
    assert product_of_rows(a, b, N) == _naive_product(a, b, N)


@given(
    st.integers(1, 5).flatmap(lambda n: _rows(n, n, 3)),
    st.integers(0, 40),
    st.none() | st.integers(2, 60),
)
def test_power_of_rows_matches_repeated_triple_loop(a, e, N):
    if N is not None:
        a = tuple(tuple(x % N for x in r) for r in a)  # power_of_rows takes reduced rows over Z/N
    expected = identity_rows(len(a))
    for _ in range(e):
        expected = _naive_product(expected, a, N)
    assert power_of_rows(a, e, N) == expected


@given(st.integers(1, 5).flatmap(lambda n: int_matrices(n, bound=7)))
def test_cofactors_give_det_linear_in_the_last_row(x):
    # n = 1 is the empty top: cofactors(()) == (1,), as det_of_rows(()) == 1
    assert det_of_rows(()) == 1
    top, last = x.rows[:-1], x.rows[-1]
    c = cofactors(top)
    assert len(c) == x.n
    assert sum(map(int.__mul__, c, last)) == det_permutation_oracle(top + (last,))
    if x.n >= 2:
        # and linear in the last top row r: r times the table of cofactors(head + (e_k,))
        head, r = top[:-1], top[-1]
        table = tuple(cofactors(head + (e,)) for e in identity_rows(x.n))
        assert c == product_of_rows((r,), table)[0]


def test_long_product_roundtrips_exactly():
    # entries outgrow any machine word; everything must stay exact
    for length, seed in ((100, 31337), (200, 31337)):
        x = sample_sl(3, length, seed=seed)
        assert x.det() == 1
        assert x * x.inverse() == IntMatrix.identity(3)
    assert max(abs(e) for r in x.rows for e in r) > 2**64


def test_matrix_power():
    x = IntMatrix([[1, 1], [0, 1]])
    assert x**5 == IntMatrix([[1, 5], [0, 1]])
    assert x**0 == IntMatrix.identity(2)
    assert x**-3 == IntMatrix([[1, -3], [0, 1]])


def test_addition_and_scalar_multiples():
    x = IntMatrix([[1, 2], [3, 4]])
    assert x + x == 2 * x
    assert x - x == 0 * x
    assert (-1) * x == IntMatrix([[-1, -2], [-3, -4]])


def test_sample_length_zero_is_identity():
    assert sample_sl(3, 0, seed=5) == IntMatrix.identity(3)


def test_sample_always_unimodular():
    for seed in range(25):
        assert sample_sl(2, 12, seed).det() == 1
        assert sample_sl(3, 9, seed).det() == 1


def test_sample_seed_stability():
    # frozen regression snapshots: the sampler must never drift under a fixed seed
    assert sample_sl(2, 10, 20240601).rows == ((-1167, 2665), (275, -628))
    assert sample_sl(3, 8, 7777).rows == ((1, -4, 0), (3, -11, 0), (9, -28, 1))
    assert sample_sl(4, 20, 1).rows == (
        (9, 0, 71, -12),
        (69, -1, 545, -84),
        (13, 0, 102, -17),
        (-69, 2, -547, 77),
    )
    assert sample_sl(4, 20, 2).rows == (
        (19, -1367, 136, 2531),
        (-18, 1811, -180, -3355),
        (0, -111, 11, 206),
        (10, -1016, 101, 1882),
    )
    assert sample_sl(8, 24, 3).rows == (
        (-33, -9, 1, -1, 13, -189, 9, 29),
        (0, 1, 0, 0, 0, 0, 0, 0),
        (-33, 5, 0, 1, 18, -104, -5, -25),
        (-20, 4, -1, 1, 20, -15, -8, -32),
        (-1, 0, 0, 0, 1, -3, 0, 0),
        (-4, 0, 0, 0, 4, -11, 0, 0),
        (-6, -1, 0, 0, -3, -44, 1, 1),
        (7, 0, 0, 0, -4, 27, 0, 1),
    )
    assert sample_sl(2, 10, 20240601) == sample_sl(2, 10, 20240601)


def test_random_elementary_rows_and_rng_state_are_pinned():
    # the rows drawn at n = 1..8, scales 1 and 3, and the generator's state
    # after each run of draws: a rewrite of the sampler must draw the same
    h = hashlib.sha256()
    for n in range(1, 9):
        for scale in (1, 3):
            rng = random.Random(1000 * n + scale)
            for length in (0, 1, 5, 17):
                h.update(repr(random_elementary_rows(n, length, rng, scale)).encode())
            h.update(repr(rng.getstate()).encode())
    assert h.hexdigest() == "7a095577646fd8acd34e1632d82d78455e451e75e14a15756e5257592802f0f2"


def test_random_elementary_rows_draw_as_randrange_does():
    # rows and generator state against the randrange/randint oracle. The
    # widths of i, j, |a| and the sign are 1..17, 5 and 2: n = 9 and 17 reject
    # 4- and 5-bit draws, j at n = 2 spends one bit per attempt, the sign two
    seed = 0
    for n in range(1, 18):
        for scale in (1, 3, 60):
            for length in range(41):
                for _ in range(2):
                    seed += 1
                    rng, ref = random.Random(seed), random.Random(seed)
                    rows = random_elementary_rows(n, length, rng, scale)
                    assert rows == random_elementary_rows_by_randrange(n, length, ref, scale)
                    assert rng.getstate() == ref.getstate()


def test_sample_validates_arguments():
    with pytest.raises(ValueError):
        sample_sl(2, -1, seed=0)
    with pytest.raises(ValueError):
        sample_sl(0, 3, seed=0)


def test_text_roundtrip():
    x = IntMatrix([[1, -2], [0, 1]])
    assert x.to_text() == "1,-2;0,1"
    assert str(x) == "1,-2;0,1"
    assert IntMatrix.from_text("1,-2;0,1") == x
    assert IntMatrix.from_text(" 1 , -2 ; 0 , 1 ") == x


@pytest.mark.parametrize("bad", ["1,2;3", "a,b;c,d", "", "1,2;0,1 mod 5", "1,,2;0,1"])
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        IntMatrix.from_text(bad)


def test_power_below_builds_only_under_the_limit():
    assert power_below(3, 5, 244) == 243
    assert power_below(3, 5, 243) is None
    assert power_below(10, 4299) == 10**4299
    assert power_below(10, 4300) is None  # 4301 digits: named, not written
    assert power_below(2, 10**15) is None  # 2^(10^15) would not fit in memory
    assert power_below(5, 0, 2) == 1 and power_below(5, 1, 1) is None
