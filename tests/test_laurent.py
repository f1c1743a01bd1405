import pytest
from hypothesis import given, strategies as st

from exotictilt import HeckeElement, KClass
from exotictilt.laurent import Combination, LaurentPoly, ONE, V, VINV, ZERO

polys = st.dictionaries(
    st.integers(-5, 5), st.integers(-9, 9), max_size=5
).map(LaurentPoly)


def test_basic_arithmetic():
    p = V + VINV
    assert p * p == LaurentPoly({2: 1, 0: 2, -2: 1})
    assert (V - VINV) + (VINV - V) == ZERO
    assert V * VINV == ONE
    assert 3 * V - V == LaurentPoly({1: 2})
    assert bool(ZERO) is False


def test_quadratic_relation_roots():
    # (X - v^-1)(X + v) expands to X^2 + (v - v^-1) X - 1; check at X = v^-1, -v
    for x in (VINV, -V):
        assert x * x + (V - VINV) * x - ONE == ZERO


def test_compose_power_and_eval():
    p = LaurentPoly({2: 3, -1: 1})
    assert p.compose_power(2) == LaurentPoly({4: 3, -2: 1})
    assert p.compose_power(-2) == LaurentPoly({-4: 3, 2: 1})
    assert p(1) == 4
    assert (V + VINV)(1) == 2


def test_eval_is_exact_int():
    big = 2**60 + 1
    for p, x, value in ((VINV, 1, 1), (V + VINV, 1, 2), (VINV, -1, -1),
                        (LaurentPoly({-1: big}), 1, big),
                        (LaurentPoly({-3: 2, 2: 5}), -1, 3),
                        (V * V + ONE, 3, 10), (ZERO, 7, 0)):
        assert p(x) == value and type(p(x)) is int, (p, x)


def test_eval_of_negative_powers_needs_unit_point():
    for p, x in ((VINV, 2), (LaurentPoly({-1100: 1}), 3), (V + VINV, 0)):
        with pytest.raises(ValueError):
            p(x)


def test_pairs_and_str():
    p = LaurentPoly({1: 1, -1: -1})
    assert p.pairs() == [[-1, -1], [1, 1]]
    assert str(p) == "v - v^-1"
    assert str(ZERO) == "0"
    assert str(LaurentPoly({0: -2, 2: 1})) == "v^2 - 2"


def test_nonneg_and_degree():
    assert (V + ONE).is_nonneg()
    assert not (V - ONE).is_nonneg()
    assert (V + VINV).max_exp() == 1
    assert (V + VINV).min_exp() == -1


@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)
    assert p + ZERO == p
    assert p * ONE == p


@given(polys, st.integers(-6, 6))
def test_shift_is_multiplication_by_a_power_of_v(p, k):
    assert p.shift(k) == p * LaurentPoly.v(k)
    assert p.shift(0) == p and ZERO.shift(k) == ZERO


@given(polys)
def test_no_zero_coefficients_stored(p):
    assert all(c != 0 for c in p.c.values())
    assert p - p == ZERO


def test_combination_is_the_one_sparse_type():
    assert HeckeElement is KClass is Combination


def test_combination_coefficient_and_positivity():
    c = Combination.basis((1,)) + Combination.basis((-1,)).scale(V)
    assert c.coefficient((1,)) == ONE and c.coefficient((-1,)) == V
    assert c.coefficient((0,)) == ZERO
    assert c.is_nonneg()
    d = c - Combination.basis((1,)).scale(2)
    assert d.coefficient((1,)) == LaurentPoly({0: -1})
    assert not d.is_nonneg()
    assert c - c == Combination() and not (c - c)
    assert hash(c) == hash(Combination({(-1,): V, (1,): ONE}))
    assert c.scale(0) == Combination()
