"""The integer Weyl arithmetic of rootdata and affweyl, checked exactly
against the Fraction and matrix implementations it replaced.  Those stay
here as oracles, as does the root-system construction that the
single-pass one replaced."""

from fractions import Fraction
from itertools import product
from math import gcd
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from exotictilt import affweyl as aw, charring as ch, heckebraid as hb
from exotictilt.rootdata import (PositiveRoot, RootSystem, _cartan_matrix,
                                 build_root_system)

from conftest import IRREDUCIBLE_UP_TO_RANK_8, PRODUCTS, get_rs

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


def determinant(rows) -> int:
    """Exact determinant of a square integer matrix, by fraction-free
    (Bareiss) elimination with row exchanges: every division is exact."""
    m = [list(row) for row in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n):
        if m[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        pivot, pivot_row = m[k][k], m[k]
        for i in range(k + 1, n):
            row, f = m[i], m[i][k]
            m[i] = row[:k + 1] + [
                (x * pivot - f * y) // prev
                for x, y in zip(row[k + 1:], pivot_row[k + 1:])
            ]
        prev = pivot
    return sign * prev


def oracle_adjugate(a):
    """The integer adjugate det(a) * a^-1, from cofactors."""
    n = len(a)
    return tuple(
        tuple(
            (-1) ** (i + j) * determinant(
                [row[:i] + row[i + 1:] for r, row in enumerate(a) if r != j]
            )
            for j in range(n)
        )
        for i in range(n)
    )


def oracle_symmetrizers(a):
    """Positive integers d with d[i]*a[i][j] == d[j]*a[j][i], by Fractions."""
    n = len(a)
    d = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if a[i][j] != 0 and i != j and d[j] is None:
                    d[j] = d[i] * Fraction(a[i][j], a[j][i])
                    stack.append(j)
    lcm_den = 1
    for x in d:
        lcm_den = lcm_den * x.denominator // gcd(lcm_den, x.denominator)
    ints = [int(x * lcm_den) for x in d]
    g = 0
    for x in ints:
        g = gcd(g, x)
    return tuple(x // g for x in ints)


def oracle_close_roots(rank, simple_roots):
    """The positive roots, as the positive part of the closure of the
    simple roots under every simple reflection (all of Phi)."""
    def unit(i):
        return tuple(int(j == i) for j in range(rank))

    seeds = [(alpha, unit(j), unit(j)) for j, alpha in enumerate(simple_roots)]
    seen = {s[0]: s for s in seeds}
    frontier = list(seeds)
    while frontier:
        nxt = []
        for coords, rc, cr in frontier:
            for i, alpha in enumerate(simple_roots):
                p = coords[i]
                new_coords = tuple([a - p * b for a, b in zip(coords, alpha)])
                if new_coords in seen:
                    continue
                q = sum(map(mul, cr, alpha))
                entry = (
                    new_coords,
                    rc[:i] + (rc[i] - p,) + rc[i + 1:],
                    cr[:i] + (cr[i] - q,) + cr[i + 1:],
                )
                seen[new_coords] = entry
                nxt.append(entry)
        frontier = nxt
    pos = [
        PositiveRoot(coords, rc, cr)
        for coords, rc, cr in seen.values()
        if all(x >= 0 for x in rc)
    ]
    pos.sort(key=lambda r: (sum(r.root_coords), r.root_coords))
    return tuple(pos)


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
    c = oracle_root_coords_int(rs, rs.sub(mu, lam))
    assert rs.dominance_leq(lam, mu) == (c is not None and all(v >= 0 for v in c))
    det = rs.cartan_det
    assert aw.coset_class_key(rs, lam) == tuple(
        det * (q - q.__floor__()) for q in oracle_root_coords(rs, lam))


def oracle_inner(rs, lam, mu):
    """Bourbaki's (lam, mu) = sum_j d_j lam_j c_j, with (alpha_j, alpha_j) =
    2 d_j and c the simple-root coordinates of mu."""
    d = oracle_symmetrizers(rs.cartan_matrix)
    return sum(dj * a * c for dj, a, c in zip(d, lam, oracle_root_coords(rs, mu)))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_inner_is_the_coroot_form(data):
    """inner(lam, mu) = sum_{alpha>0} <lam, alpha_vee><mu, alpha_vee>; it
    is W-invariant, and on each irreducible component a fixed positive
    multiple of Bourbaki's form, so Freudenthal's recursion and the
    line-bundle order read the same on it."""
    rs = get_rs(data.draw(st.sampled_from(SPECS + ["A1xA2", "B2xG2", "D4"])))
    weights = st.tuples(*[st.integers(-4, 4)] * rs.rank)
    lam, mu = data.draw(weights), data.draw(weights)
    assert rs.inner(lam, mu) == sum(
        sum(map(mul, c, lam)) * sum(map(mul, c, mu)) for c in rs.coroot_rows)
    w = data.draw(st.sampled_from(rs.weyl_group())).matrix
    assert rs.inner(rs.apply(w, lam), rs.apply(w, mu)) == rs.inner(lam, mu)
    assert rs.inner(lam, lam) > 0 or not any(lam)
    parts = []
    for idx, _ in rs.components:
        def part(x):
            return tuple(a if i in idx else 0 for i, a in enumerate(x))
        unit = part(rs.rho)
        scale = Fraction(rs.inner(unit, unit), oracle_inner(rs, unit, unit))
        assert scale > 0
        lam_c, mu_c = part(lam), part(mu)
        assert rs.inner(lam_c, mu_c) == scale * oracle_inner(rs, lam_c, mu_c)
        parts.append(rs.inner(lam_c, mu_c))
    assert rs.inner(lam, mu) == sum(parts)


@pytest.mark.parametrize("spec", SPECS + ["D4", "F4", "E6"])
def test_cartan_adjugate(spec):
    rs = get_rs(spec)
    det = oracle_determinant(rs.cartan_matrix)
    assert rs.cartan_det == determinant(rs.cartan_matrix) == det > 0
    assert rs.cartan_adjugate == tuple(
        tuple(det * x for x in row) for row in oracle_inverse(rs.cartan_matrix))


@pytest.mark.parametrize("spec", IRREDUCIBLE_UP_TO_RANK_8 + PRODUCTS)
def test_root_system_matches_oracles(spec):
    """Every field of build_root_system, from the oracles of the cofactor,
    full-closure and Fraction construction it replaced."""
    rs = build_root_system(spec)
    a = rs.cartan_matrix
    det = oracle_determinant(a)
    adjugate = oracle_adjugate(a)
    pos = oracle_close_roots(rs.rank, tuple(zip(*a)))
    blocks, offset = [], 0
    for part in spec.split("x"):
        block = _cartan_matrix(part[0], int(part[1:]))
        blocks.append((tuple(range(offset, offset + len(block))), block))
        offset += len(block)
    expected = {
        "spec": spec,
        "rank": offset,
        "cartan_matrix": tuple(
            (0,) * idx[0] + row + (0,) * (offset - idx[-1] - 1)
            for idx, block in blocks for row in block),
        "simple_roots": tuple(zip(*a)),
        "positive_roots": pos,
        "components": tuple(
            (idx, max((r for r in pos
                       if all(c == 0 or j in idx for j, c in enumerate(r.root_coords))),
                      key=lambda r: sum(r.root_coords)))
            for idx, _ in blocks),
        "cartan_det": det,
        "cartan_adjugate": adjugate,
        "height_row": tuple(map(sum, zip(*adjugate))),
        "identity_matrix": tuple(
            tuple(int(i == j) for j in range(offset)) for i in range(offset)),
        "coroot_rows": tuple(r.coroot for r in pos),
    }
    assert set(RootSystem.__slots__) - {"_cache"} == set(expected)
    for name, value in expected.items():
        assert getattr(rs, name) == value, name
    assert det == determinant(a) > 0
    assert adjugate == tuple(tuple(det * x for x in row) for row in oracle_inverse(a))
    assert all(r.coords == rs.apply(a, r.root_coords) for r in pos)


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
    one-generator step and first descent, left products by a generator,
    bruhat_leq and the Freudenthal tables behind freudenthal_mult and
    module_weights run in integers only, cold memo tables included."""
    rs = build_root_system("A3")
    cold = build_root_system("A3")     # for the step and Bruhat bursts
    fresh = [build_root_system(spec) for spec in ("B3", "G2")]
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
            aw.first_descent(cold, x)
            for gid in aw.generator_order(cold):
                aw.gen_step(cold, x, gid)
                hb.mul_gen(cold, hb.T(cold, x), gid, "left")
        for x in elements[::4]:
            for y in elements[::7]:
                aw.bruhat_leq(cold, x, y)
        for other in fresh:
            for lam in product(range(2), repeat=other.rank):
                ch.freudenthal_mult(other, lam, other.zero())
                ch.module_weights(other, lam)
    finally:
        Fraction.__new__ = saved
    assert made == []
