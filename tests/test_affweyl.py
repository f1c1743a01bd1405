import itertools

import pytest
from hypothesis import given, settings, strategies as st

from exotictilt import affweyl as aw
from exotictilt import build_root_system

from conftest import IRREDUCIBLE_UP_TO_RANK_8, PRODUCTS, get_rs


def random_element(rs, data, radius=2):
    w = data.draw(st.sampled_from(rs.weyl_group()))
    lam = data.draw(
        st.tuples(*[st.integers(-radius, radius)] * rs.rank)
    )
    return aw.AffineElement(w.matrix, lam)


def test_length_examples(a1, a2):
    assert aw.aff_length(a1, aw.t_lambda(a1, (1,))) == 1
    assert aw.aff_length(a2, aw.t_lambda(a2, (1, 1))) == 4
    s = aw.simple_generators(a1)[1]
    st_m = aw.aff_mul(a1, s, aw.t_lambda(a1, (-1,)))
    assert aw.aff_length(a1, st_m) == 0


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_multiplication_group_laws(data):
    rs = get_rs(data.draw(st.sampled_from(["A2", "B2", "A1xA1"])))
    x = random_element(rs, data)
    y = random_element(rs, data)
    z = random_element(rs, data)
    assert aw.aff_mul(rs, aw.aff_mul(rs, x, y), z) == \
        aw.aff_mul(rs, x, aw.aff_mul(rs, y, z))
    e = aw.identity(rs)
    assert aw.aff_mul(rs, x, aw.aff_inv(rs, x)) == e
    assert aw.aff_mul(rs, aw.aff_inv(rs, x), x) == e


def test_translation_multiplication(a2):
    # t_lam t_mu = t_{lam+mu}; w t_lam w^-1 = t_{w lam}
    for lam in [(1, 0), (-1, 2)]:
        for mu in [(0, 1), (2, -1)]:
            lhs = aw.aff_mul(a2, aw.t_lambda(a2, lam), aw.t_lambda(a2, mu))
            assert lhs == aw.t_lambda(a2, a2.add(lam, mu))
    for w in a2.weyl_group():
        x = aw.AffineElement(w.matrix, a2.zero())
        conj = aw.aff_mul(a2, aw.aff_mul(a2, x, aw.t_lambda(a2, (1, 2))),
                          aw.aff_inv(a2, x))
        assert conj == aw.t_lambda(a2, a2.apply(w.matrix, (1, 2)))


def test_simple_generators(a1, a2, b2):
    g1 = aw.simple_generators(a1)
    assert set(g1) == {1, 0}
    assert g1[0].t == (-2,)                       # s_alpha t_{-alpha}
    g2 = aw.simple_generators(a2)
    assert set(g2) == {1, 2, 0}
    assert g2[0].t == (-1, -1)                    # affine node on theta
    assert len(aw.simple_generators(b2)) == 3
    for rs, gens in [(a1, g1), (a2, g2)]:
        for g in gens.values():
            assert aw.aff_length(rs, g) == 1
            assert aw.aff_mul(rs, g, g) == aw.identity(rs)


def test_generators_regenerate_length_ball(a2):
    """The returned generators generate W_aff^Cox: the length-<=3 ball from
    repeated right multiplication matches a direct enumeration."""
    gens = aw.simple_generators(a2)
    ball = {aw.identity(a2)}
    frontier = [aw.identity(a2)]
    for _ in range(3):
        nxt = []
        for x in frontier:
            for g in gens.values():
                y = aw.aff_mul(a2, x, g)
                if y not in ball:
                    ball.add(y)
                    nxt.append(y)
        frontier = nxt
    reachable = {x for x in ball if aw.aff_length(a2, x) <= 3}
    assert len(reachable) == len(ball)
    counts = {}
    for x in ball:
        counts[aw.aff_length(a2, x)] = counts.get(aw.aff_length(a2, x), 0) + 1
    assert counts[0] == 1 and counts[1] == 3


def test_omega_decompose_examples(a1, a2):
    om, u = aw.omega_decompose(a1, aw.t_lambda(a1, (1,)))
    assert aw.aff_length(a1, om) == 0 and om.t == (-1,)
    assert u == aw.simple_generators(a1)[1]
    s = aw.simple_generators(a1)[1]
    om2, u2 = aw.omega_decompose(a1, s)
    assert om2 == aw.identity(a1) and u2 == s
    om3, u3 = aw.omega_decompose(a2, aw.t_lambda(a2, (1, 0)))
    assert aw.aff_length(a2, om3) == 0
    assert aw.aff_length(a2, u3) == aw.aff_length(a2, aw.t_lambda(a2, (1, 0)))
    assert len(aw.omega_elements(a2)) == 3


def test_omega_orders():
    for spec, n in [("A1", 2), ("A2", 3), ("B2", 2), ("G2", 1), ("A1xA1", 4)]:
        assert len(aw.omega_elements(get_rs(spec))) == n


@pytest.mark.parametrize("spec", [
    "A1", "A2", "A3", "A4", "B2", "B3", "C3", "C4", "D4", "D5", "E6", "E7",
    "E8", "F4", "G2", "A1xA1xA1", "B3xC2"])
def test_omega_order_is_the_cartan_determinant(spec):
    """|Omega| = |X / Z.Phi| = det A, the figure rootinfo reports."""
    rs = build_root_system(spec)
    assert len(aw.omega_elements(rs)) == rs.cartan_det


@pytest.mark.parametrize("spec", [
    "A1", "A2", "A3", "B2", "C3", "D4", "G2", "A1xA2", "B3xC2"])
def test_omega_of_weight_matches_the_omega_table(spec):
    """One length-0 element per call, without building Omega, equal to the
    table entry of the weight's class, also for huge coordinates."""
    rs = build_root_system(spec)
    radius = 2 if rs.rank <= 3 else 1
    far = (10**9,) + (0,) * (rs.rank - 1)
    got = {}
    for lam in aw.weight_box(rs, radius):
        for mu in (lam, rs.add(lam, far)):
            got[mu] = aw.omega_of_weight(rs, mu)
    assert not rs.memo("omega_elements")
    table = aw.omega_elements(rs)
    for mu, om in got.items():
        assert om == table[aw.coset_class_key(rs, mu)], mu


def test_reduced_word_examples(a1):
    assert aw.reduced_word(a1, aw.identity(a1)) == (aw.identity(a1), ())
    om, word = aw.reduced_word(a1, aw.t_lambda(a1, (1,)))
    assert word == (1,) and om.t == (-1,)
    om2, word2 = aw.reduced_word(a1, aw.t_lambda(a1, (2,)))
    assert om2 == aw.identity(a1) and word2 == (0, 1)   # t_alpha = s_0 s_1


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_reduced_word_roundtrip(data):
    rs = get_rs(data.draw(st.sampled_from(["A2", "B2", "G2"])))
    x = random_element(rs, data)
    om, word = aw.reduced_word(rs, x)
    assert len(word) == aw.aff_length(rs, x)
    gens = aw.simple_generators(rs)
    back = om
    for gid in word:
        back = aw.aff_mul(rs, back, gens[gid])
    assert back == x


def test_bruhat_examples(a1):
    e = aw.identity(a1)
    s = aw.simple_generators(a1)[1]
    tw = aw.t_lambda(a1, (1,))
    om = aw.omega_of_weight(a1, (1,))
    assert aw.bruhat_leq(a1, e, s)
    assert aw.bruhat_leq(a1, om, tw)       # omega <= omega*s componentwise
    assert not aw.bruhat_leq(a1, s, tw)    # different Omega components
    assert aw.bruhat_leq(a1, tw, tw)


def test_bruhat_on_finite_weyl_group(a2):
    """On W the componentwise Bruhat order matches subword order."""
    welts = [aw.AffineElement(w.matrix, a2.zero()) for w in a2.weyl_group()]
    below = {x: {y for y in welts if aw.bruhat_leq(a2, y, x)} for x in welts}
    sizes = sorted(len(v) for v in below.values())
    # A2 Bruhat lower-set sizes: e:1, s:2, s:2, st:4, ts:4, w0:6
    assert sizes == [1, 2, 2, 4, 4, 6]


def test_bruhat_on_infinite_dihedral_group():
    """W_aff^Cox of A1 is the infinite dihedral group, where u < w iff
    l(u) < l(w).  The walks run past 2000 steps, more than the recursion
    limit, and every pair on a walk is memoized with the final answer."""
    rs = build_root_system("A1")    # an empty bruhat memo
    gens = aw.simple_generators(rs)
    elements = []
    for length in (0, 1, 2, 3, 2001, 2002, 2500):
        for first in (0, 1):
            x = aw.identity(rs)
            for i in range(length):
                x = aw.aff_mul(rs, x, gens[(first + i) % 2])
            assert aw.aff_length(rs, x) == length
            elements.append(x)

    def rule(u, w):
        return u == w or aw.aff_length(rs, u) < aw.aff_length(rs, w)

    for u in elements:
        for w in elements:
            assert aw.bruhat_leq(rs, u, w) == rule(u, w)
    memo = rs.memo("bruhat")
    assert len(memo) > 2500
    assert all(res == rule(u, w) for (u, w), res in memo.items())


def test_bruhat_memo_matches_subword_property():
    """u <= w iff u is a subproduct of a reduced word of w.  On the length
    ball of radius 4 in W_aff^Cox of A2, where a walk to `false` can take
    several steps, every pair the walks memoize has that answer."""
    rs = build_root_system("A2")    # an empty bruhat memo
    gens = aw.simple_generators(rs)
    ball = {aw.identity(rs)}
    for _ in range(4):
        ball |= {aw.aff_mul(rs, x, g) for x in ball for g in gens.values()}
    below = {}
    for w in ball:
        subs = {aw.identity(rs)}
        for gid in aw.reduced_word(rs, w)[1]:
            subs |= {aw.aff_mul(rs, x, gens[gid]) for x in subs}
        below[w] = subs
    for u in ball:
        for w in ball:
            assert aw.bruhat_leq(rs, u, w) == (u in below[w])
    memo = rs.memo("bruhat")
    assert any(not res for res in memo.values())
    assert all(res == (u in below[w]) for (u, w), res in memo.items())


def test_w_lambda_examples(a1):
    elt, d = aw.w_lambda(a1, (1,))
    assert elt == aw.t_lambda(a1, (1,)) and d == 0
    elt, d = aw.w_lambda(a1, (-1,))
    assert aw.aff_length(a1, elt) == 0 and d == 1
    elt, d = aw.w_lambda(a1, (-2,))
    assert elt == aw.simple_generators(a1)[0] and d == 1


def test_w_lambda_properties():
    for spec in ["A2", "B2", "G2", "A1xA1", "A3"]:
        rs = get_rs(spec)
        gens = aw.simple_generators(rs)
        for lam in itertools.product(range(-2, 3), repeat=rs.rank):
            elt, d = aw.w_lambda(rs, lam)
            ll = aw.aff_length(rs, elt)
            assert ll == aw.aff_length(rs, aw.t_lambda(rs, lam)) - d
            for i in range(rs.rank):
                assert aw.aff_length(rs, aw.aff_mul(rs, gens[i + 1], elt)) > ll


def test_order_examples(a1):
    assert aw.order_leq_weights(a1, (-1,), (1,))
    assert not aw.order_leq_weights(a1, (1,), (2,))   # different Z.Phi cosets
    assert aw.order_leq_weights(a1, (2,), (2,))


def test_order_matches_dominance_small(a2):
    box = aw.weight_box(a2, 2)
    for lam in box:
        for mu in box:
            if a2.root_coords_int(a2.sub(mu, lam)) is None:
                assert not aw.order_leq_weights(a2, lam, mu)
                continue
            if (a2.is_dominant(lam) and a2.is_dominant(mu)) or \
                    a2.dom(lam) == a2.dom(mu):
                assert aw.order_leq_weights(a2, lam, mu) == \
                    a2.dominance_leq(lam, mu)


def test_length_invariants_radius4(b2):
    box = aw.weight_box(b2, 4)
    gens = aw.simple_generators(b2)
    for lam in box:
        lt = aw.aff_length(b2, aw.t_lambda(b2, lam))
        for w in b2.weyl_group():
            assert aw.aff_length(
                b2, aw.t_lambda(b2, b2.apply(w.matrix, lam))) == lt
        x = aw.t_lambda(b2, lam)
        for om in aw.omega_elements(b2).values():
            assert aw.aff_length(b2, aw.aff_mul(b2, om, x)) == lt
        for gid in gens:
            assert abs(aw.aff_length(b2, aw.aff_mul(b2, x, gens[gid])) - lt) == 1


# --- the closed-form generator step against the general path --------------


def oracle_affine_generators(rs):
    """The affine generators by brute-force search: for each component, the
    unique s_gamma t_{-gamma} of length 1 over its positive roots gamma."""
    out = {}
    for c, (indices, _) in enumerate(rs.components):
        found = [
            aw.AffineElement(rs.reflection_matrix(r), rs.neg(r.coords))
            for r in rs.positive_roots
            if all(r.root_coords[j] == 0 or j in indices for j in range(rs.rank))
        ]
        found = [x for x in found if aw.aff_length(rs, x) == 1]
        assert len(found) == 1, (rs.spec, c, len(found))
        out[-c] = found[0]
    return out


def oracle_reduced_word(rs, x):
    """Greedy right-descent stripping by aff_mul and aff_length, the first
    descent in generator_order taken."""
    gens = aw.simple_generators(rs)
    letters = []
    cur, clen = x, aw.aff_length(rs, x)
    while clen > 0:
        for gid in aw.generator_order(rs):
            nxt = aw.aff_mul(rs, cur, gens[gid])
            nlen = aw.aff_length(rs, nxt)
            if nlen < clen:
                letters.append(gid)
                cur, clen = nxt, nlen
                break
        else:
            raise AssertionError("positive-length element with no right descent")
    return cur, tuple(reversed(letters))


@pytest.mark.parametrize("spec", IRREDUCIBLE_UP_TO_RANK_8 + PRODUCTS)
def test_affine_generators_match_search(spec):
    rs = get_rs(spec)
    gens = aw.simple_generators(rs)
    oracle = oracle_affine_generators(rs)
    assert {gid: gens[gid] for gid in oracle} == oracle
    assert aw.generator_order(rs) == [
        *range(1, rs.rank + 1), *range(0, -len(rs.components), -1)]
    for i in range(rs.rank):
        assert gens[i + 1] == aw.AffineElement(
            rs.simple_reflection_matrix(i), rs.zero())


def check_steps(rs, x):
    gens = aw.simple_generators(rs)
    lx = aw.aff_length(rs, x)
    for gid, s in gens.items():
        for side, ref in (("right", aw.aff_mul(rs, x, s)),
                          ("left", aw.aff_mul(rs, s, x))):
            y, down = aw.gen_step(rs, x, gid, side)
            assert y == ref, (gid, side)
            assert down == (aw.aff_length(rs, ref) < lx), (gid, side)
            assert aw.descends(rs, x, gid, side) == down, (gid, side)
    assert aw.reduced_word(rs, x) == oracle_reduced_word(rs, x)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_gen_step_matches_aff_mul_and_length(data):
    rs = get_rs(data.draw(st.sampled_from(
        ["A1", "A2", "B2", "G2", "A3", "B3", "C3", "A1xA2"])))
    check_steps(rs, random_element(rs, data, radius=4))


@pytest.mark.parametrize("spec, lam", [
    ("D4", (0, 0, 0, 0)), ("D4", (1, -2, 0, 3)), ("D4", (-1, 0, -1, 1)),
    ("F4", (0, 0, 0, 0)), ("F4", (2, -1, 0, -3)), ("F4", (-1, 1, 1, 0)),
])
def test_gen_step_fixed_cases(spec, lam):
    rs = get_rs(spec)
    for w in rs.weyl_group()[::37]:
        check_steps(rs, aw.AffineElement(w.matrix, lam))
