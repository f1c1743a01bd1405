import itertools

import pytest
from hypothesis import given, settings, strategies as st

from exotictilt import affweyl as aw, exotic_k as ek, heckebraid as hb, verify
from exotictilt.laurent import LaurentPoly, ONE, V_MINUS_VINV, VINV_MINUS_V

from conftest import get_rs


def inverse(letters):
    """The letters of the inverse braid word."""
    return tuple((k, g, -e) for k, g, e in reversed(letters))


def T_word(rs, gids):
    xi = hb.unit(rs)
    for gid in gids:
        xi = hb.mul_gen(rs, xi, gid, "right")
    return xi


def test_quadratic_relation(a1, a2, b2, g2):
    for rs in (a1, a2, b2, g2):
        for gid, g in aw.simple_generators(rs).items():
            ts = hb.T(rs, g)
            sq = hb.hecke_mul(rs, ts, ts)
            expect = hb.unit(rs) + ts.scale(VINV_MINUS_V)
            assert sq == expect, (rs.spec, gid)


def test_omega_squared_a1(a1):
    om = aw.omega_of_weight(a1, (1,))
    prod = hb.hecke_mul(rs := a1, hb.T(rs, om), hb.T(rs, om))
    assert prod == hb.unit(a1)


def test_identity_and_linearity(a2):
    xi = hb.theta(a2, (-1, 1))
    assert hb.hecke_mul(a2, hb.unit(a2), xi) == xi
    assert hb.hecke_mul(a2, xi, hb.unit(a2)) == xi
    two = xi + xi
    assert two.scale(ONE) == two
    assert (two - xi) == xi


def test_inverse_generators(a1):
    s = aw.simple_generators(a1)[1]
    om = aw.omega_of_weight(a1, (1,))
    tsinv = hb.evaluate_word(a1, (("s", 1, -1),))
    assert hb.hecke_mul(a1, tsinv, hb.T(a1, s)) == hb.unit(a1)
    for side in ("right", "left"):
        assert hb.mul_basis_inv(a1, hb.unit(a1), s, side) == tsinv
    # T_s - T_s^-1 = (v^-1 - v) T_e
    diff = hb.T(a1, s) - tsinv
    assert diff == hb.unit(a1).scale(VINV_MINUS_V)
    ominv = hb.evaluate_word(a1, (("omega", om, -1),))
    assert ominv == hb.T(a1, om)  # omega self-inverse


def test_braid_relations():
    """T_s T_t T_s ... = T_t T_s T_t ... (m(s,t) factors each side)."""
    for spec in ["A2", "B2", "G2", "A1xA1"]:
        rs = get_rs(spec)
        gens = aw.simple_generators(rs)
        for sid, tid in itertools.combinations(gens, 2):
            prod = aw.aff_mul(rs, gens[sid], gens[tid])
            m, acc = 1, prod
            while acc != aw.identity(rs) and m <= 6:
                acc = aw.aff_mul(rs, acc, prod)
                m += 1
            if m > 6:
                continue  # infinite order (e.g. affine A1)
            left = T_word(rs, [sid, tid] * m)
            right = T_word(rs, [tid, sid] * m)
            assert left == right, (spec, sid, tid, m)


def test_omega_conjugation_sends_simples_to_simples():
    for spec in ["A1", "A2", "B2", "A1xA1"]:
        rs = get_rs(spec)
        gens = aw.simple_generators(rs)
        gen_set = set(gens.values())
        for om in aw.omega_elements(rs).values():
            for g in gens.values():
                conj = aw.aff_mul(rs, aw.aff_mul(rs, om, g), aw.aff_inv(rs, om))
                assert conj in gen_set
                lhs = hb.mul_basis(
                    rs, hb.mul_basis(rs, hb.T(rs, g), aw.aff_inv(rs, om), "right"),
                    om, "left",
                )
                assert lhs == hb.T(rs, conj)


def test_evaluate_word_examples(a1):
    assert hb.evaluate_word(a1, ()) == hb.unit(a1)
    w = (("s", 1, 1), ("s", 1, -1))
    assert hb.evaluate_word(a1, w) == hb.unit(a1)
    om = aw.omega_of_weight(a1, (1,))
    w2 = (("omega", om, 1), ("s", 1, 1))
    assert hb.evaluate_word(a1, w2) == hb.T(a1, aw.t_lambda(a1, (1,)))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_evaluate_word_multiplicative(data):
    rs = get_rs(data.draw(st.sampled_from(["A2", "B2"])))
    order = aw.generator_order(rs)
    om = list(aw.omega_elements(rs).values())
    letters = st.one_of(
        st.tuples(st.just("s"), st.sampled_from(order), st.sampled_from([1, -1])),
        st.tuples(st.just("omega"), st.sampled_from(om), st.sampled_from([1, -1])),
    )
    wa = tuple(data.draw(st.lists(letters, max_size=4)))
    wb = tuple(data.draw(st.lists(letters, max_size=4)))
    lhs = hb.evaluate_word(rs, wa + wb)
    rhs = hb.hecke_mul(rs, hb.evaluate_word(rs, wa), hb.evaluate_word(rs, wb))
    assert lhs == rhs
    inv = hb.evaluate_word(rs, wa + inverse(wa))
    assert inv == hb.unit(rs)


def test_theta_examples(a1, a2):
    assert hb.theta(a1, (1,)) == hb.T(a1, aw.t_lambda(a1, (1,)))
    assert hb.theta(a2, (0, 0)) == hb.unit(a2)
    om = aw.omega_of_weight(a1, (1,))
    expect = hb.T(a1, aw.t_lambda(a1, (-1,))) + hb.T(a1, om).scale(V_MINUS_VINV)
    assert hb.theta(a1, (-1,)) == expect


def test_theta_independent_of_decomposition(a2, b2):
    """theta_lam = T_{t_mu} (T_{t_nu})^{-1} for any dominant mu - nu = lam."""
    for rs in (a2, b2):
        for lam in [(-1, 0), (1, -2), (-1, -1), (2, -1)]:
            base = hb.theta(rs, lam)
            for extra in [(1, 0), (1, 1), (0, 2)]:
                mu0, nu0 = hb.theta_decomposition(rs, lam)
                mu = rs.add(mu0, extra)
                nu = rs.add(nu0, extra)
                xi = hb.T(rs, aw.t_lambda(rs, mu))
                xi = hb.mul_basis_inv(rs, xi, aw.t_lambda(rs, nu), "right")
                assert xi == base, (rs.spec, lam, extra)


def test_theta_invertible(a2):
    for lam in [(1, 0), (-1, 1), (-2, -1)]:
        prod = hb.hecke_mul(a2, hb.theta(a2, lam), hb.theta(a2, a2.neg(lam)))
        assert prod == hb.unit(a2)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_associativity_random(data):
    rs = get_rs(data.draw(st.sampled_from(["A2", "B2"])))
    order = aw.generator_order(rs)
    words = [
        data.draw(st.lists(st.sampled_from(order), max_size=3))
        for _ in range(3)
    ]
    xi, eta, zeta = (T_word(rs, w) for w in words)
    lhs = hb.hecke_mul(rs, hb.hecke_mul(rs, xi, eta), zeta)
    rhs = hb.hecke_mul(rs, xi, hb.hecke_mul(rs, eta, zeta))
    assert lhs == rhs


def test_left_right_sweeps_agree_with_products(a2):
    """mul_basis against termwise hecke_mul on both sides."""
    xi = hb.theta(a2, (-1, 1))
    x = aw.t_lambda(a2, (1, 0))
    assert hb.mul_basis(a2, xi, x, "right") == \
        hb.hecke_mul(a2, xi, hb.T(a2, x))
    assert hb.mul_basis(a2, xi, x, "left") == \
        hb.hecke_mul(a2, hb.T(a2, x), xi)


def test_unknown_side_is_refused(a2):
    for fn, arg in ((hb.mul_gen, 1), (hb.mul_basis, aw.identity(a2))):
        with pytest.raises(ValueError, match="side must be"):
            fn(a2, hb.unit(a2), arg, "Left")


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_word_sweeps_invert_on_both_sides(data):
    """The one sweep behind both regular modules and the K-module: T_x and
    (T_x)^{-1} undo each other on either side, the left sweep is the
    product T_x * xi, and a word followed by its inverse fixes a K-class."""
    rs = get_rs(data.draw(st.sampled_from(["A2", "B2"])))
    order = aw.generator_order(rs)
    w = data.draw(st.sampled_from(rs.weyl_group()))
    t = data.draw(st.tuples(*[st.integers(-1, 1)] * rs.rank))
    x = aw.AffineElement(w.matrix, t)
    xi = T_word(rs, data.draw(st.lists(st.sampled_from(order), max_size=3)))
    for side in ("right", "left"):
        there = hb.mul_basis(rs, xi, x, side)
        assert hb.mul_basis_inv(rs, there, x, side) == xi, side
    assert hb.mul_basis(rs, xi, x, "left") == hb.hecke_mul(rs, hb.T(rs, x), xi)

    om = list(aw.omega_elements(rs).values())
    letters = st.one_of(
        st.tuples(st.just("s"), st.sampled_from(order), st.sampled_from([1, -1])),
        st.tuples(st.just("omega"), st.sampled_from(om), st.sampled_from([1, -1])),
    )
    word = tuple(data.draw(st.lists(letters, max_size=5)))
    lam = data.draw(st.tuples(*[st.integers(-2, 2)] * rs.rank))
    c = ek.KClass.basis(lam).scale(LaurentPoly({0: 2, 1: -1}))
    assert ek._act(rs, ek._act(rs, c, word), inverse(word)) == c


def _module(rs, name):
    """(step, move, key strategy) of one module of the sweep: the right
    regular module or its K quotient."""
    if name == "K":
        keys = st.tuples(*[st.integers(-2, 2)] * rs.rank)
        return ek._basis_gen_action, ek._basis_omega_action, keys
    keys = st.builds(lambda w, t: aw.AffineElement(w.matrix, t),
                     st.sampled_from(rs.weyl_group()),
                     st.tuples(*[st.integers(-1, 1)] * rs.rank))
    return hb._step, hb._move, keys


POLYS = st.dictionaries(st.integers(-2, 2), st.integers(-3, 3).filter(bool),
                        min_size=1, max_size=3).map(LaurentPoly)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_inverse_letters_match_the_quadratic_relation(data):
    """The closed-form T_s^{-1} steps of the right regular module and its K
    quotient against T_s^{-1} = T_s + (v - v^-1), and T_s, T_s^{-1} undoing
    each other in either order.  Left products are mirrored right ones;
    test_word_sweeps_invert_on_both_sides covers their inverse letters."""
    rs = get_rs(data.draw(st.sampled_from(["A1", "A2", "B2", "G2"])))
    module = data.draw(st.sampled_from(["right", "K"]))
    step, move, keys = _module(rs, module)
    terms = data.draw(st.dictionaries(keys, POLYS, min_size=1, max_size=4))
    if module == "K":   # at m_0 every finite s is not minimal
        terms[rs.zero()] = data.draw(POLYS)
    c = hb.Combination(terms)
    for gid in aw.generator_order(rs):
        s, sinv = ("s", gid, 1), ("s", gid, -1)
        once = hb.act(rs, c, (s,), step, move)
        assert hb.act(rs, c, (sinv,), step, move) == \
            once + c.scale(V_MINUS_VINV), (module, gid)
        assert hb.act(rs, c, (s, sinv), step, move) == c, (module, gid)
        assert hb.act(rs, c, (sinv, s), step, move) == c, (module, gid)


def _word_element(rs, data, max_size):
    """(letters, H-element) of a random word in T_s^+-1 and, where Omega is
    not trivial, T_omega^+-1, with a random coefficient."""
    letter = st.tuples(st.just("s"), st.sampled_from(aw.generator_order(rs)),
                       st.sampled_from([1, -1]))
    om = [o for o in aw.omega_elements(rs).values() if o != aw.identity(rs)]
    if om:
        letter = st.one_of(letter, st.tuples(
            st.just("omega"), st.sampled_from(om), st.sampled_from([1, -1])))
    letters = tuple(data.draw(st.lists(letter, max_size=max_size)))
    xi = hb.evaluate_word(rs, letters).scale(data.draw(POLYS))
    return letters, xi


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mirror_is_an_anti_involution_and_makes_left_products(data):
    """iota(T_x) = T_{x^-1} is an involution and reverses products, and a
    left product by a word, with Omega letters on A2, equals the product
    in H with the word's image on the left."""
    rs = get_rs(data.draw(st.sampled_from(["A2", "B2", "G2"])))
    _, xi = _word_element(rs, data, 4)
    letters, eta = _word_element(rs, data, 4)
    assert hb._mirror(rs, hb._mirror(rs, xi)) == xi
    assert hb._mirror(rs, hb.hecke_mul(rs, xi, eta)) == \
        hb.hecke_mul(rs, hb._mirror(rs, eta), hb._mirror(rs, xi))
    word = hb.evaluate_word(rs, letters)
    assert hb._regular(rs, xi, letters, "left") == hb.hecke_mul(rs, word, xi)
    omega = data.draw(st.sampled_from(list(aw.omega_elements(rs).values())))
    w = data.draw(st.sampled_from(rs.weyl_group()))
    t = data.draw(st.tuples(*[st.integers(-1, 1)] * rs.rank))
    x = aw.aff_mul(rs, omega, aw.AffineElement(w.matrix, t))
    assert hb.mul_basis(rs, xi, x, "left") == hb.hecke_mul(rs, hb.T(rs, x), xi)
    assert hb.mul_basis_inv(rs, xi, x, "left") == hb.hecke_mul(
        rs, hb.evaluate_word(rs, hb.word_letters(rs, x, True)), xi)


def _scale_loop(act_one, c, eta, zero):
    """The per-term linear extension act_element replaced: out + (c * T_y) p_y
    over the terms p_y T_y of eta."""
    out = zero
    for y, p in eta.terms.items():
        out = out + act_one(c, y).scale(p)
    return out


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_act_element_matches_the_per_term_scale_loop(data):
    """hecke_mul and act_hecke on multi-term elements against the per-term
    loop, terms in the same order, in H and in the K-module."""
    rs = get_rs(data.draw(st.sampled_from(["A1", "A2", "B2", "G2"])))
    _, xi = _word_element(rs, data, 3)
    _, eta = _word_element(rs, data, 4)
    eta = eta + hb.theta(rs, data.draw(
        st.tuples(*[st.integers(-1, 1)] * rs.rank))).scale(data.draw(POLYS))
    got = hb.hecke_mul(rs, xi, eta)
    old = _scale_loop(lambda c, y: hb.mul_basis(rs, c, y), xi, eta,
                      hb.HeckeElement())
    assert list(got.terms.items()) == list(old.terms.items())
    lam = data.draw(st.tuples(*[st.integers(-2, 2)] * rs.rank))
    c = ek.KClass.basis(lam).scale(data.draw(POLYS)) + ek.m0(rs)
    got = ek.act_hecke(rs, c, eta)
    old = _scale_loop(
        lambda c, y: ek._act(rs, c, hb.word_letters(rs, y)),
        c, eta, ek.KClass())
    assert list(got.terms.items()) == list(old.terms.items())


def test_verify_bernstein_passes(a1, a2):
    assert verify.verify_bernstein(a1, 2).passed
    assert verify.verify_bernstein(a2, 1).passed


def test_verify_t_translation_passes(a1, a2, b2):
    for rs in (a1, a2, b2):
        rep = verify.verify_t_translation_conjugation(rs, 2)
        assert rep.passed, rep.summary()


def test_report_failure_carries_counterexample():
    rep = verify.Report("demo")
    rep.check(True, "nope")
    rep.check(False, "lam=(1,)")
    assert not rep.passed and rep.checked == 2
    assert "lam=(1,)" in rep.summary()
