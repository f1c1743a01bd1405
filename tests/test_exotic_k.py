import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from exotictilt import affweyl as aw, exotic_k as ek, heckebraid as hb
from exotictilt.exotic_k import KClass
from exotictilt.laurent import LaurentPoly, ONE, VINV

from conftest import get_rs

V = LaurentPoly.v(1)


def test_act_simple_examples(a1):
    m0 = ek.m0(a1)
    assert ek.act_simple(a1, m0, 1) == m0.scale(VINV)
    assert ek.act_simple(a1, KClass.basis((-1,)), 1) == KClass.basis((1,))
    down = ek.act_simple(a1, KClass.basis((1,)), 1)
    assert down == KClass.basis((-1,)) + KClass.basis((1,)).scale(VINV - V)


def test_act_omega_and_theta(a1):
    m0 = ek.m0(a1)
    om = aw.omega_of_weight(a1, (1,))
    assert ek.act_hecke(a1, m0, hb.T(a1, om)) == KClass.basis((-1,))
    assert ek.act_hecke(a1, m0, hb.theta(a1, (1,))) == KClass.basis((1,))
    assert ek.act_hecke(a1, m0, hb.unit(a1)) == m0


def test_nabla_delta_examples(a1):
    assert ek.nabla_class(a1, (0,)) == ek.m0(a1)
    assert ek.delta_class(a1, (0,)) == ek.m0(a1)
    assert ek.delta_class(a1, (-1,)) == KClass.basis((-1,))
    expect = KClass.basis((-2,)) - ek.m0(a1).scale(VINV - V)
    assert ek.delta_class(a1, (-2,)) == expect


def test_nabla_is_word_action(a2):
    """m_lam agrees with m_0 . T_{w_lam}."""
    for lam in itertools.product(range(-2, 3), repeat=2):
        w, _ = aw.w_lambda(a2, lam)
        assert ek.act_hecke(a2, ek.m0(a2), hb.T(a2, w)) == KClass.basis(lam)


def test_line_bundle_examples(a1):
    assert ek.line_bundle_class(a1, (0,)) == ek.m0(a1)
    assert ek.line_bundle_class(a1, (1,)) == KClass.basis((1,))
    expect = KClass.basis((-2,)).scale(V) + \
        ek.m0(a1).scale(LaurentPoly({2: 1, 0: -1}))
    assert ek.line_bundle_class(a1, (-2,)) == expect


def test_line_bundle_anchors():
    for spec in ["A2", "B2"]:
        rs = get_rs(spec)
        for lam in itertools.product(range(-2, 3), repeat=2):
            cls = ek.line_bundle_class(rs, lam)
            if rs.is_dominant(lam):
                assert cls == KClass.basis(lam)
            if all(a <= 0 for a in lam):
                expected = ek.delta_class(rs, lam).scale(
                    LaurentPoly.v(rs.delta(lam)))
                assert cls == expected


def test_bott_samelson_examples(a1):
    om = aw.omega_of_weight(a1, (1,))
    e = aw.identity(a1)
    assert ek.bott_samelson_class(a1, e, []) == ek.m0(a1)
    assert ek.bott_samelson_class(a1, e, [1]) == \
        ek.m0(a1).scale(V + VINV)
    assert ek.bott_samelson_class(a1, om, [1]) == \
        KClass.basis((1,)) + KClass.basis((-1,)).scale(V)


def test_bott_samelson_order_flag(a2):
    om = aw.omega_of_weight(a2, (1, 0))
    seq = [1, 2]
    assert ek.bott_samelson_class(a2, om, seq) != \
        ek.bott_samelson_class(a2, om, seq[::-1])


def test_tensor_class_examples(a1):
    m0 = ek.m0(a1)
    assert ek.tensor_class(a1, {(0,): 1}, m0) == m0
    got = ek.tensor_class(a1, {(1,): 1, (-1,): 1}, m0)
    assert got == KClass.basis((1,)) + KClass.basis((-1,)).scale(V)
    adj = ek.tensor_class(a1, {(2,): 1, (0,): 1, (-2,): 1}, m0)
    expect = KClass.basis((2,)) + ek.m0(a1).scale(LaurentPoly({2: 1})) + \
        KClass.basis((-2,)).scale(V)
    assert adj == expect


def tensor_class_oracle(rs, weights, c):
    """The per-weight sum: one Combination added per weight, each theta
    image scaled by its multiplicity."""
    out = KClass()
    for mu, mult in weights.items():
        if mult < 0:
            raise ValueError("weight multiplicities must be nonnegative")
        if mult:
            out = out + ek._act(rs, c, hb.theta_letters(rs, mu)).scale(mult)
    return out


@pytest.mark.parametrize("spec", ["A1", "A2", "B2", "G2"])
def test_tensor_class_matches_the_per_weight_sum(spec):
    rs = get_rs(spec)
    rng = random.Random(5)
    box = aw.weight_box(rs, 2)
    starts = [ek.m0(rs), ek.delta_class(rs, box[0]),
              ek.line_bundle_class(rs, box[-1]) + KClass.basis(box[3])]
    for c in starts:
        for _ in range(6):
            weights = {mu: rng.choice((0, 1, 3)) for mu in rng.sample(box, 5)}
            assert ek.tensor_class(rs, weights, c) == \
                tensor_class_oracle(rs, weights, c), (spec, weights)
    with pytest.raises(ValueError):
        ek.tensor_class(rs, {rs.zero(): 1, rs.rho: -1}, starts[0])


def test_spherical_character():
    for spec in ["A2", "B2", "G2"]:
        rs = get_rs(spec)
        m0 = ek.m0(rs)
        for w in rs.weyl_group():
            x = aw.AffineElement(w.matrix, rs.zero())
            assert ek.act_hecke(rs, m0, hb.T(rs, x)) == \
                m0.scale(LaurentPoly.v(-w.length))


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_braid_action_normalization(data):
    """m_0 . T_x = v^{len(w_mu) - len(x)} m_mu for x in W t_mu."""
    rs = get_rs(data.draw(st.sampled_from(["A2", "B2", "G2"])))
    w = data.draw(st.sampled_from(rs.weyl_group()))
    lam = data.draw(st.tuples(*[st.integers(-2, 2)] * rs.rank))
    x = aw.AffineElement(w.matrix, lam)
    shift = aw.aff_length(rs, aw.w_lambda(rs, lam)[0]) - aw.aff_length(rs, x)
    assert ek.act_hecke(rs, ek.m0(rs), hb.T(rs, x)) == \
        KClass.basis(lam).scale(LaurentPoly.v(shift))


def test_quadratic_annihilates_basis(b2):
    for lam in itertools.product(range(-2, 3), repeat=2):
        c = KClass.basis(lam)
        for gid in aw.generator_order(b2):
            once = ek.act_simple(b2, c, gid)
            val = ek.act_simple(b2, once, gid) + \
                once.scale(LaurentPoly({1: 1, -1: -1})) - c
            assert not val


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_module_axiom(data):
    rs = get_rs(data.draw(st.sampled_from(["A2", "B2"])))
    order = aw.generator_order(rs)
    lam = data.draw(st.tuples(*[st.integers(-2, 2)] * rs.rank))
    wa = data.draw(st.lists(st.sampled_from(order), max_size=3))
    wb = data.draw(st.lists(st.sampled_from(order), max_size=3))
    xi = hb.unit(rs)
    for gid in wa:
        xi = hb.mul_gen(rs, xi, gid, "right")
    eta = hb.unit(rs)
    for gid in wb:
        eta = hb.mul_gen(rs, eta, gid, "right")
    c = KClass.basis(lam)
    lhs = ek.act_hecke(rs, c, hb.hecke_mul(rs, xi, eta))
    rhs = ek.act_hecke(rs, ek.act_hecke(rs, c, xi), eta)
    assert lhs == rhs


def test_act_by_braid_word(a1):
    om = aw.omega_of_weight(a1, (1,))
    word = hb.BraidWord((("omega", om, 1), ("s", 1, 1)))
    assert ek.act_hecke(a1, ek.m0(a1), word) == KClass.basis((1,))
    winv = hb.BraidWord((("s", 1, -1),))
    assert ek.act_hecke(a1, ek.m0(a1), winv) == ek.m0(a1).scale(V)


def test_delta_triangular(a2):
    for lam in itertools.product(range(-2, 3), repeat=2):
        d = ek.delta_class(a2, lam)
        assert d.coefficient(lam) == ONE
        for mu in d.terms:
            assert aw.order_leq_weights(a2, mu, lam)


def test_costandard_reflection_shadow(b2):
    for lam in itertools.product(range(-2, 3), repeat=2):
        nab0 = KClass.basis(lam).scale(LaurentPoly.v(b2.delta(lam)))
        for i in range(2):
            slam = b2.apply(b2.simple_reflection_matrix(i), lam)
            acted = ek.act_hecke(b2, nab0, hb.BraidWord((("s", i + 1, -1),)))
            if slam == lam:
                assert acted == nab0.scale(V)
            elif b2.dominance_leq(slam, lam):
                assert acted == KClass.basis(slam).scale(
                    LaurentPoly.v(b2.delta(slam)) * VINV)


def test_bs_positivity_random_sample():
    rng = random.Random(7)
    for spec in ["A1", "A2", "B2"]:
        rs = get_rs(spec)
        order = aw.generator_order(rs)
        omegas = list(aw.omega_elements(rs).values())
        for _ in range(40):
            om = rng.choice(omegas)
            seq = [rng.choice(order) for _ in range(rng.randint(0, 5))]
            assert ek.bott_samelson_class(rs, om, seq).is_nonneg()


def test_tensor_by_tilting_character_preserves_positivity():
    """Tensoring a Bott-Samelson class by a characteristic-zero tilting
    character keeps every coefficient in Z>=0[v, v^-1]."""
    from exotictilt import charring as ch

    rng = random.Random(13)
    for spec in ["A1", "A2"]:
        rs = get_rs(spec)
        order = aw.generator_order(rs)
        omegas = list(aw.omega_elements(rs).values())
        chars = [
            ch.full_weights(
                rs, ch.CharacterMultiset.of(rs, {lam: 1}, "Weyl"))
            for lam in itertools.product(range(2), repeat=rs.rank)
        ]
        for _ in range(12):
            om = rng.choice(omegas)
            seq = [rng.choice(order) for _ in range(rng.randint(0, 4))]
            bs = ek.bott_samelson_class(rs, om, seq)
            for weights in chars:
                assert ek.tensor_class(rs, weights, bs).is_nonneg()
