"""The integer Weyl arithmetic of rootdata and affweyl, checked exactly
against the Fraction and matrix implementations it replaced.  Those stay
here as oracles."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from exotictilt import affweyl as aw
from exotictilt.rootdata import build_root_system, determinant

from conftest import get_rs

SPECS = ["A1", "A2", "B2", "G2", "A3", "B3", "C3", "A1xA1"]


# --- oracles ------------------------------------------------------------------


def oracle_determinant(rows):
    """Gaussian elimination over Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] * inv
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return det


def oracle_inverse(a):
    """Gauss-Jordan inverse over Fractions."""
    n = len(a)
    m = [[Fraction(a[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
         for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return tuple(tuple(row[n:]) for row in m)


def oracle_apply(matrix, lam):
    return tuple(sum(x * y for x, y in zip(row, lam)) for row in matrix)


def oracle_root_coords(rs, lam):
    return oracle_apply(oracle_inverse(rs.cartan_matrix), lam)


def oracle_root_coords_int(rs, lam):
    c = oracle_root_coords(rs, lam)
    if any(x.denominator != 1 for x in c):
        return None
    return tuple(int(x) for x in c)


def oracle_weyl_length(rs, matrix):
    """The number of positive roots that the matrix sends to negative ones."""
    pos = {r.coords for r in rs.positive_roots}
    return sum(oracle_apply(matrix, r.coords) not in pos for r in rs.positive_roots)


def oracle_aff_length(rs, x):
    pos = {r.coords for r in rs.positive_roots}
    total = 0
    for r in rs.positive_roots:
        pair = sum(a * b for a, b in zip(r.coroot, x.t))
        if oracle_apply(x.w, r.coords) in pos:
            total += abs(pair)
        else:
            total += abs(1 + pair)
    return total


def oracle_aff_mul(x, y):
    n = len(x.w)
    w = tuple(
        tuple(sum(x.w[i][k] * y.w[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )
    winv = tuple(tuple(int(e) for e in row) for row in oracle_inverse(y.w))
    return aw.AffineElement(w, tuple(a + b for a, b in zip(oracle_apply(winv, x.t), y.t)))


# --- differential tests ---------------------------------------------------------


def draw_element(data, rs):
    w = data.draw(st.sampled_from(rs.weyl_group()))
    lam = data.draw(st.tuples(*[st.integers(-3, 3)] * rs.rank))
    return aw.AffineElement(w.matrix, lam)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_weyl_arithmetic_matches_oracles(data):
    rs = get_rs(data.draw(st.sampled_from(SPECS)))
    x = draw_element(data, rs)
    y = draw_element(data, rs)
    assert aw.aff_length(rs, x) == oracle_aff_length(rs, x)
    assert aw.aff_mul(rs, x, y) == oracle_aff_mul(x, y)
    assert rs.mat_inv(x.w) == oracle_inverse(x.w)
    assert rs.weyl_length(x.w) == oracle_weyl_length(rs, x.w)
    lam, mu = x.t, y.t
    assert rs.root_coords_int(lam) == oracle_root_coords_int(rs, lam)
    assert rs.root_coords(lam) == oracle_root_coords(rs, lam)
    c = oracle_root_coords_int(rs, rs.sub(mu, lam))
    assert rs.dominance_leq(lam, mu) == (c is not None and all(v >= 0 for v in c))
    det = rs.cartan_det
    assert aw.coset_class_key(rs, lam) == tuple(
        det * (q - q.__floor__()) for q in oracle_root_coords(rs, lam))


@pytest.mark.parametrize("spec", SPECS + ["D4", "F4", "E6"])
def test_cartan_adjugate(spec):
    rs = get_rs(spec)
    det = oracle_determinant(rs.cartan_matrix)
    assert rs.cartan_det == determinant(rs.cartan_matrix) == det > 0
    assert rs.cartan_adjugate == tuple(
        tuple(det * x for x in row) for row in oracle_inverse(rs.cartan_matrix))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5).flatmap(
    lambda n: st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_determinant_matches_fraction_elimination(rows):
    assert determinant(rows) == oracle_determinant(rows)


@pytest.mark.parametrize("spec", ["F4", "E6"])
def test_mat_inv_of_longest_element(spec):
    rs = get_rs(spec)
    w0 = rs.longest_element().matrix
    assert rs.mat_inv(w0) == oracle_inverse(w0) == w0
    assert rs.weyl_length(w0) == oracle_weyl_length(rs, w0) == len(rs.positive_roots)


def test_mat_inv_refuses_non_weyl_matrices():
    rs = build_root_system("A2")
    with pytest.raises(ValueError):
        rs.mat_inv(((2, 0), (0, 1)))


# --- regression guard -------------------------------------------------------------


def test_weyl_arithmetic_builds_no_fractions():
    """aff_mul, aff_length, reduced_word, mat_inv, root_coords_int, the
    one-generator step on both sides and bruhat_leq run in integers only,
    cold memo tables included."""
    rs = build_root_system("A3")
    cold = build_root_system("A3")     # for the step and Bruhat bursts
    elements = [aw.AffineElement(w.matrix, lam)
                for w in rs.weyl_group()[::3]
                for lam in [(1, -2, 0), (-1, 1, 3), (0, 0, -2)]]
    saved = vars(Fraction)["__new__"]
    original = Fraction.__new__
    made = []

    def counting(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    Fraction.__new__ = counting
    try:
        Fraction(1, 2)
        assert len(made) == 1      # the patch does see constructions
        made.clear()
        for x in elements:
            for y in elements[::5]:
                xy = aw.aff_mul(rs, x, y)
                aw.aff_length(rs, xy)
                aw.reduced_word(rs, xy)
                rs.mat_inv(xy.w)
                rs.root_coords_int(xy.t)
        for x in elements:
            for gid in aw.generator_order(cold):
                for side in ("right", "left"):
                    aw.gen_step(cold, x, gid, side)
                    aw.descends(cold, x, gid, side)
        for x in elements[::4]:
            for y in elements[::7]:
                aw.bruhat_leq(cold, x, y)
    finally:
        Fraction.__new__ = saved
    assert made == []
