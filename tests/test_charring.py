import itertools
import time

import pytest
from hypothesis import given, settings, strategies as st

from exotictilt import build_root_system, charring as ch
from exotictilt.charring import CharacterMultiset
from exotictilt.laurent import LaurentPoly, ONE, ZERO
from exotictilt.rootdata import RootSystemError

from conftest import get_rs, specs_up_to_rank


# --- oracles ------------------------------------------------------------------


def weyl_dim(rs, lam):
    """dim M(lam), the sum of its weight multiplicities."""
    return sum(ch.module_weights(rs, lam).values())


def _kp(rs, i, coords, dp):
    """Oracle for the dense Kostant table: the recursion over the positive
    roots up to index i, memoised in dp by (i, coords)."""
    if all(x == 0 for x in coords):
        return ONE
    if i < 0:
        return ZERO
    key = (i, coords)
    res = dp.get(key)
    if res is not None:
        return res
    root = rs.positive_roots[i].root_coords
    total = ZERO
    cur = coords
    k = 0
    while all(x >= 0 for x in cur):
        part = _kp(rs, i - 1, cur, dp)
        if part:
            total = total + part * LaurentPoly.v(k)
        cur = tuple(a - b for a, b in zip(cur, root))
        k += 1
    dp[key] = total
    return total


def lusztig_q_wsum(rs, lam, mu):
    """Oracle for lusztig_q: the alternating sum over all of W, enumerated."""
    rho = rs.rho
    shifted = rs.add(lam, rho)
    target = rs.add(mu, rho)
    total = ZERO
    for w in rs.weyl_group():
        arg = rs.sub(rs.apply(w.matrix, shifted), target)
        p = ch.kostant_partition(rs, arg)
        if p:
            total = total + (p if w.length % 2 == 0 else -p)
    return total


def test_kostant_examples(a1, a2):
    assert ch.kostant_partition(a1, (0,)) == ONE
    assert ch.kostant_partition(a1, (-2,)) == ZERO
    assert ch.kostant_partition(a1, (1,)) == ZERO          # not in root lattice
    assert ch.kostant_partition(a2, (1, 1)) == LaurentPoly({1: 1, 2: 1})


def test_kostant_degree_and_positivity(b2):
    for lam in itertools.product(range(-1, 5), repeat=2):
        p = ch.kostant_partition(b2, lam)
        assert p.is_nonneg()
        c = b2.root_coords_int(lam)
        if p:
            assert c is not None
            assert p.max_exp() <= sum(c)       # at most height(lam) roots
            assert p.min_exp() >= 1 or lam == (0, 0)


def test_kostant_generating_series_oracle(a2, b2):
    """Brute-force enumeration of positive-root multisets."""
    for rs in (a2, b2):
        bound = 3
        for lam in itertools.product(range(bound + 1), repeat=2):
            c = rs.root_coords_int(lam)
            if c is None:
                continue
            counts = {}
            roots = [r.root_coords for r in rs.positive_roots]

            def rec(i, remaining, used):
                if all(x == 0 for x in remaining):
                    counts[used] = counts.get(used, 0) + 1
                    return
                if i < 0 or any(x < 0 for x in remaining):
                    return
                k = 0
                cur = remaining
                while all(x >= 0 for x in cur):
                    rec(i - 1, cur, used + k)
                    cur = tuple(a - b for a, b in zip(cur, roots[i]))
                    k += 1

            rec(len(roots) - 1, c, 0)
            expect = LaurentPoly(counts)
            assert ch.kostant_partition(rs, lam) == expect, (rs.spec, lam)


def test_lusztig_examples(a1, a2):
    assert ch.lusztig_q(a1, (3,), (3,)) == ONE
    assert ch.lusztig_q(a1, (2,), (0,)) == LaurentPoly({1: 1})
    assert ch.lusztig_q(a2, (1, 1), (0, 0)) == LaurentPoly({1: 1, 2: 1})


def test_lusztig_support(a2, b2):
    for rs in (a2, b2):
        for lam in itertools.product(range(3), repeat=2):
            for mu in itertools.product(range(3), repeat=2):
                if ch.lusztig_q(rs, lam, mu):
                    assert rs.dominance_leq(mu, lam)


LOW_RANK_SPECS = ["A1", "A2", "B2", "C2", "G2", "A3", "B3", "C3", "A1xA1"]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_lusztig_orbit_walk_matches_wsum(data):
    """The pruned orbit walk against the W-sum oracle, for any lam and mu.
    Outside lam + Z.Phi both are 0; for non-dominant mu they need not be,
    but for dominant lam at v = 1 both give the weight multiplicity
    (Kostant's formula).  Non-dominant lam covers a walk that starts at the
    dominant representative of lam + rho, or at a singular one."""
    rs = get_rs(data.draw(st.sampled_from(LOW_RANK_SPECS)))
    lam = tuple(data.draw(st.lists(st.integers(-4, 2), min_size=rs.rank,
                                   max_size=rs.rank)))
    mu = tuple(data.draw(st.lists(st.integers(-4, 4), min_size=rs.rank,
                                  max_size=rs.rank)))
    got = ch.lusztig_q(rs, lam, mu)
    assert got == lusztig_q_wsum(rs, lam, mu), (rs.spec, lam, mu)
    if rs.root_coords_int(rs.sub(lam, mu)) is None:
        assert got == ZERO
    if rs.is_dominant(lam):
        assert got(1) == ch.freudenthal_mult(rs, lam, mu)


def test_lusztig_off_lattice_and_non_dominant(a1, a2):
    for q in (ch.lusztig_q, lusztig_q_wsum):
        assert q(a2, (1, 0), (0, 0)) == ZERO              # not in lam + Z.Phi
        assert q(a2, (1, 1), (-1, 2)) == LaurentPoly({1: 1})   # mu = alpha_2
        assert q(a2, (0, 0), (0, -3)) == LaurentPoly({0: 1, 1: -1, 2: -1, 3: 1})
        assert q(a1, (-1,), (-1,)) == ZERO                # lam + rho singular
        assert q(a1, (-2,), (-2,)) == LaurentPoly({0: 1, 1: -1})
        assert q(a2, (-3, 1), (0, 0)) == ZERO


@pytest.mark.parametrize("spec", ["A4", "B4", "C4", "D4", "F4"])
def test_lusztig_orbit_walk_rank_4_fundamental(spec):
    rs = get_rs(spec)
    zero = rs.zero()
    for i in range(rs.rank):
        lam = tuple(int(j == i) for j in range(rs.rank))
        assert ch.lusztig_q(rs, lam, zero) == lusztig_q_wsum(rs, lam, zero), \
            (spec, lam)


def test_kp_recursion_direct(b2):
    """The recursive Kostant recursion on simple-root coordinates, with
    a = alpha_1 long and b = alpha_2 short; positive roots a, b, a+b, a+2b."""
    dp = {}
    assert _kp(b2, len(b2.positive_roots) - 1, (0, 0), dp) == ONE
    # a + b: {a, b} or {a+b}
    assert _kp(b2, len(b2.positive_roots) - 1, (1, 1), dp) == \
        LaurentPoly({1: 1, 2: 1})
    # a + 2b: {a, b, b}, {a+b, b}, {a+2b}
    assert _kp(b2, len(b2.positive_roots) - 1, (1, 2), dp) == \
        LaurentPoly({1: 1, 2: 1, 3: 1})


def _weight_of(rs, coords):
    """The weight with simple-root coordinates coords."""
    return tuple(sum(c * a[k] for c, a in zip(coords, rs.simple_roots))
                 for k in range(rs.rank))


def _kp_oracle(rs, coords, dp):
    return _kp(rs, len(rs.positive_roots) - 1, tuple(coords), dp)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_kostant_table_matches_recursion(data):
    """The dense table against the recursion, for every spec of rank <= 3,
    on a fresh root system whose table is built for the drawn box; the
    coordinates run over a box of the root cone, with a few negative ones
    (value 0) mixed in."""
    spec = data.draw(st.sampled_from(specs_up_to_rank(3)))
    rs = build_root_system(spec)
    hi = {1: 8, 2: 5, 3: 3}[rs.rank]
    dp = {}
    for _ in range(3):
        c = tuple(data.draw(st.lists(st.integers(-1, hi), min_size=rs.rank,
                                     max_size=rs.rank)))
        got = ch.kostant_partition(rs, _weight_of(rs, c))
        assert got == _kp_oracle(rs, c, dp), (spec, c)


@pytest.mark.parametrize("spec", ["A4", "B4", "C4", "D4", "F4"])
def test_kostant_table_rank_4_fundamental(spec):
    """Every value in the box of simple-root coordinates below det(A) times
    each fundamental weight (a multiple that lies in the root lattice), from
    one table built for the top of that box."""
    base = get_rs(spec)
    dp = {}
    for i in range(base.rank):
        top = base.root_coords_int(
            tuple(base.cartan_det * int(j == i) for j in range(base.rank)))
        rs = build_root_system(spec)
        ch.kostant_partition(rs, _weight_of(rs, top))
        for c in itertools.product(*(range(t + 1) for t in top)):
            assert ch.kostant_partition(rs, _weight_of(rs, c)) == \
                _kp_oracle(rs, c, dp), (spec, c)
        assert rs.memo("kostant_table")[0]["top"] == top


@pytest.mark.parametrize("spec", ["B3", "D4"])
def test_kostant_table_width_is_bit_length_of_largest_value(spec):
    """The packing width is the bit length of the largest P_gamma(1) over
    the box, taken from the recursion, on tables whose entries are not all
    monomials; a narrower width would let carries cross coefficients."""
    dp = {}
    rs = build_root_system(spec)
    for i in range(rs.rank):
        top = rs.root_coords_int(
            tuple(rs.cartan_det * int(j == i) for j in range(rs.rank)))
        ch.kostant_partition(rs, _weight_of(rs, top))
        table = rs.memo("kostant_table")[0]
        largest = max(_kp_oracle(rs, c, dp)(1) for c in
                      itertools.product(*(range(t + 1) for t in table["top"])))
        assert largest > 1
        assert table["width"] == largest.bit_length(), (spec, table["top"])


def test_kostant_table_grows_by_componentwise_max():
    """Requests that are small first, then larger in different coordinates,
    give the values of a fresh root system; the box is the componentwise
    max of the requests so far."""
    rs = build_root_system("B3")
    tops = []
    for c in [(1, 0, 0), (0, 3, 0), (2, 1, 0), (0, 0, 4), (1, 1, 1), (3, 2, 1)]:
        mu = _weight_of(rs, c)
        got = ch.kostant_partition(rs, mu)
        assert got == ch.kostant_partition(build_root_system("B3"), mu), c
        tops.append(rs.memo("kostant_table")[0]["top"])
    assert tops == [(1, 0, 0), (1, 3, 0), (2, 3, 0), (2, 3, 4), (2, 3, 4),
                    (3, 3, 4)]


def test_kostant_bound(monkeypatch):
    """A box over the bound is refused before anything is allocated; when
    only the grown box would be over it, the table is rebuilt for the new
    request alone."""
    monkeypatch.setattr(ch, "KOSTANT_BOUND", 15)
    rs = build_root_system("A2")
    assert ch.kostant_partition(rs, _weight_of(rs, (4, 0))) == \
        LaurentPoly({4: 1})
    assert ch.kostant_partition(rs, _weight_of(rs, (2, 3))) == \
        _kp_oracle(rs, (2, 3), {})
    assert rs.memo("kostant_table")[0]["top"] == (2, 3)
    with pytest.raises(RootSystemError, match="above the bound 15"):
        ch.kostant_partition(rs, _weight_of(rs, (5, 5)))
    assert rs.memo("kostant_table")[0]["top"] == (2, 3)


def test_kostant_bit_bound(monkeypatch):
    """The packed table is refused by its bits, size + width * size *
    ht(top) / 2, before the packed sweep; as with the entry bound, an
    over-budget grown box falls back to the request's own box."""
    rs = build_root_system("A2")
    ch.kostant_partition(rs, _weight_of(rs, (2, 3)))
    table = rs.memo("kostant_table")[0]
    size, width = len(table["cells"]), table["width"]
    bits = sum(cell.bit_length() for cell in table["cells"])
    assert bits == size + width * size * 5 // 2 == 72

    monkeypatch.setattr(ch, "KOSTANT_BIT_BOUND", 72)
    rs = build_root_system("A2")
    assert ch.kostant_partition(rs, _weight_of(rs, (3, 2))) == \
        _kp_oracle(rs, (3, 2), {})
    assert ch.kostant_partition(rs, _weight_of(rs, (2, 3))) == \
        _kp_oracle(rs, (2, 3), {})
    assert rs.memo("kostant_table")[0]["top"] == (2, 3)
    with pytest.raises(RootSystemError, match="160 bits, above the bound 72"):
        ch.kostant_partition(rs, _weight_of(rs, (3, 3)))
    assert rs.memo("kostant_table")[0]["top"] == (2, 3)


def test_kostant_factors_over_components():
    """On a product, P is the product of the components' values; a rank-1
    component is answered as v^c without a table, however large c is."""
    rs = build_root_system("A1xA2")
    a2 = build_root_system("A2")
    big = 10**6
    got = ch.kostant_partition(rs, _weight_of(rs, (big, 2, 1)))
    assert got == LaurentPoly.v(big) * ch.kostant_partition(
        a2, _weight_of(a2, (2, 1)))
    assert set(rs.memo("kostant_table")) == {1}
    assert rs.memo("kostant_table")[1]["top"] == (2, 1)
    assert ch.kostant_partition(get_rs("A1"), (2 * big,)) == \
        LaurentPoly.v(big)


def test_lusztig_f4_rho_specializes_to_freudenthal():
    """The F4 rho q-analogue, once 12 s through the recursion, in one dense
    table of 38016 entries."""
    rs = build_root_system("F4")
    zero = rs.zero()
    start = time.perf_counter()
    q = ch.lusztig_q(rs, rs.rho, zero)
    elapsed = time.perf_counter() - start
    assert q(1) == ch.freudenthal_mult(rs, rs.rho, zero) == 34432
    assert q.is_nonneg() and q.min_exp() == 8 and q.max_exp() == 55
    assert rs.memo("kostant_table")[0]["top"] == (11, 21, 15, 8)
    assert elapsed < 10.0


def test_freudenthal_examples(a1, a2):
    assert ch.freudenthal_mult(a1, (1,), (1,)) == 1
    assert ch.freudenthal_mult(a1, (2,), (0,)) == 1
    assert ch.freudenthal_mult(a2, (1, 1), (0, 0)) == 2
    assert ch.freudenthal_mult(a1, (1,), (0,)) == 0


def test_dimensions():
    a2 = get_rs("A2")
    assert weyl_dim(a2, (1, 0)) == 3
    assert weyl_dim(a2, (1, 1)) == 8
    assert weyl_dim(a2, (3, 0)) == 10
    b2 = get_rs("B2")
    assert weyl_dim(b2, (1, 0)) == 5     # vector rep of so(5)
    assert weyl_dim(b2, (0, 1)) == 4     # spin rep
    g2 = get_rs("G2")
    dims = sorted([weyl_dim(g2, (1, 0)), weyl_dim(g2, (0, 1))])
    assert dims == [7, 14]


def test_lusztig_specializes_to_freudenthal():
    """Kostant multiplicity formula at v=1 vs the Freudenthal recursion."""
    for spec in ["A1", "A2", "B2", "G2"]:
        rs = get_rs(spec)
        rng = range(3 if spec != "G2" else 2)
        for lam in itertools.product(rng, repeat=rs.rank):
            for mu in itertools.product(rng, repeat=rs.rank):
                assert ch.lusztig_q(rs, lam, mu)(1) == \
                    ch.freudenthal_mult(rs, lam, mu), (spec, lam, mu)


def test_character_multiset_validation(a2):
    with pytest.raises(ValueError):
        CharacterMultiset.of(a2, {(-1, 0): 1}, "Weyl")
    with pytest.raises(ValueError):
        CharacterMultiset.of(a2, {(1, 0): -1}, "Weyl")
    with pytest.raises(ValueError):
        CharacterMultiset.of(a2, {(1, 0): 1}, "weird")
    cm = CharacterMultiset.of(a2, {(1, 0): 1, (0, 0): 0}, "Weyl")
    assert cm.mults == (((1, 0), 1),)
    # the same multiplicities read in the good basis
    assert CharacterMultiset(cm.mults, "good") == \
        CharacterMultiset.of(a2, {(1, 0): 1}, "good")


def test_tensor_decompose_examples(a1, a2):
    td = ch.tensor_decompose(a1, (1,), (1,))
    assert td.as_dict() == {(2,): 1, (0,): 1}
    td = ch.tensor_decompose(a2, (1, 0), (0, 0))
    assert td.as_dict() == {(1, 0): 1}
    td = ch.tensor_decompose(a2, (1, 0), (0, 1))    # 3 x 3bar = 8 + 1
    assert td.as_dict() == {(1, 1): 1, (0, 0): 1}


def _brute_force_decompose(rs, lam, mu):
    table = {}
    for w1, m1 in ch.module_weights(rs, lam).items():
        for w2, m2 in ch.module_weights(rs, mu).items():
            w = rs.add(w1, w2)
            table[w] = table.get(w, 0) + m1 * m2
    out = {}
    while any(table.values()):
        doms = [w for w, m in table.items() if m and rs.is_dominant(w)]
        top = next(
            w for w in doms
            if all(w == u or not rs.dominance_leq(w, u) for u in doms)
        )
        c = table[top]
        assert c > 0
        for w2, m2 in ch.module_weights(rs, top).items():
            table[w2] = table.get(w2, 0) - c * m2
        out[top] = c
    assert all(v == 0 for v in table.values())
    return out


def test_tensor_decompose_against_brute_force():
    for spec in ["A1", "A2", "B2"]:
        rs = get_rs(spec)
        for lam in itertools.product(range(2), repeat=rs.rank):
            for mu in itertools.product(range(2), repeat=rs.rank):
                got = ch.tensor_decompose(rs, lam, mu).as_dict()
                assert got == _brute_force_decompose(rs, lam, mu), \
                    (spec, lam, mu)


def test_tensor_decompose_dimension_consistency(b2):
    for lam in itertools.product(range(2), repeat=2):
        for mu in itertools.product(range(2), repeat=2):
            td = ch.tensor_decompose(b2, lam, mu)
            total = sum(c * weyl_dim(b2, nu) for nu, c in td.mults)
            assert total == weyl_dim(b2, lam) * weyl_dim(b2, mu)


def test_full_weights_examples(a1):
    cm = CharacterMultiset.of(a1, {(1,): 1}, "Weyl")
    assert ch.full_weights(a1, cm) == {(1,): 1, (-1,): 1}
    cm = CharacterMultiset.of(a1, {(2,): 1}, "Weyl")
    assert ch.full_weights(a1, cm) == {(2,): 1, (0,): 1, (-2,): 1}
    cm = CharacterMultiset.of(a1, {(0,): 1}, "good")
    assert ch.full_weights(a1, cm) == {(0,): 1}
