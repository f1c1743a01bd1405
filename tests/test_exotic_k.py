import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from exotictilt import (affweyl as aw, charring as ch, exotic_k as ek,
                        heckebraid as hb)
from exotictilt.exotic_k import KClass
from exotictilt.laurent import (LaurentPoly, ONE, VINV, VINV_MINUS_V,
                                V_MINUS_VINV)

from exotictilt.rootdata import build_root_system

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
    for _ in range(6):
        weights = {mu: rng.choice((0, 1, 3)) for mu in rng.sample(box, 5)}
        assert ek.tensor_class(rs, weights, starts[0]) == \
            tensor_class_oracle(rs, weights, starts[0]), (spec, weights)
    for c in starts[1:]:
        with pytest.raises(ValueError):
            ek.tensor_class(rs, {rs.zero(): 1}, c)
    # theta_mu theta_nu = theta_{mu + nu}: from [O(nu)] the oracle's theta
    # sweep must meet the line-bundle table at the shifted weights
    nu = box[0]
    for _ in range(6):
        weights = {mu: rng.choice((0, 1, 3)) for mu in rng.sample(box, 5)}
        shifted = {tuple(a + b for a, b in zip(mu, nu)): mult
                   for mu, mult in weights.items()}
        assert tensor_class_oracle(
            rs, weights, ek.line_bundle_class(rs, nu)) == \
            ek.tensor_class(rs, shifted, starts[0]), (spec, weights)
    with pytest.raises(ValueError):
        ek.tensor_class(rs, {rs.zero(): 1, rs.rho: -1}, starts[0])


def old_basis_gen_action(rs, lam, gid, exp):
    """The K-module case table read from w_lam, u = w_lam s with translation
    part mu, which the library replaced by the regular step of t_lam."""
    u, down = aw.gen_step(rs, aw.w_lambda(rs, lam)[0], gid)
    mu = u.t
    if mu == lam:
        return ((lam, VINV if exp == 1 else V),)
    if down and exp == 1:
        return ((mu, ONE), (lam, VINV_MINUS_V))
    if not down and exp == -1:
        return ((mu, ONE), (lam, V_MINUS_VINV))
    return ((mu, ONE),)


ORACLE_BOXES = [("A1", 4), ("A2", 2), ("B2", 2), ("G2", 2), ("A3", 1),
                ("A1xA2", 1), ("D4", 1)]


@pytest.mark.parametrize("spec,radius", ORACLE_BOXES)
def test_basis_gen_action_matches_the_old_case_table(spec, radius):
    rs = get_rs(spec)
    for lam in aw.weight_box(rs, radius):
        for gid in aw.generator_order(rs):
            for exp in (1, -1):
                assert ek._basis_gen_action(rs, lam, gid, exp) == \
                    old_basis_gen_action(rs, lam, gid, exp), (lam, gid, exp)


@pytest.mark.parametrize("spec,radius", ORACLE_BOXES)
def test_basis_omega_action_matches_w_lambda(spec, radius):
    """m_lam . T_omega read from t_lam omega is m_mu for mu the translation
    of w_lam omega, for every Omega element."""
    rs = get_rs(spec)
    omegas = list(aw.omega_elements(rs).values())
    for lam in aw.weight_box(rs, radius):
        wl = aw.w_lambda(rs, lam)[0]
        for om in omegas:
            assert ek._basis_omega_action(rs, lam, om) == \
                aw.aff_mul(rs, wl, om).t, (lam, om)


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
    word = (("omega", om, 1), ("s", 1, 1))
    assert ek._act(a1, ek.m0(a1), word) == KClass.basis((1,))
    winv = (("s", 1, -1),)
    assert ek._act(a1, ek.m0(a1), winv) == ek.m0(a1).scale(V)


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
            acted = ek._act(b2, nab0, (("s", i + 1, -1),))
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
                assert tensor_class_oracle(rs, weights, bs).is_nonneg()


def _bar(rs, c):
    """bar(sum p_mu m_mu) = sum pbar_mu Delta^mu, pbar(v) = p(v^-1)."""
    out = KClass()
    for mu, p in c.terms.items():
        out = out + ek.delta_class(rs, mu).scale(p.compose_power(-1))
    return out


@pytest.mark.parametrize("spec,radius", [
    ("A1", 5), ("A2", 2), ("B2", 2), ("G2", 1), ("A3", 1), ("A1xA2", 1)])
def test_bar_is_an_involution(spec, radius):
    """bar(bar(m_lam)) = m_lam: the inverse letters of every Delta^mu run
    through the K step, so a wrong wall case or a wrong sign shows here."""
    rs = get_rs(spec)
    for lam in aw.weight_box(rs, radius):
        m = KClass.basis(lam)
        assert _bar(rs, _bar(rs, m)) == m, lam


# ---------------------------------------------------------------------------
# Delta by the K-descent walk


def delta_class_oracle(rs, lam):
    """[Delta^lam] = m_0 . (T_{w_lam^{-1}})^{-1}, swept from the reduced word
    of w_lam^{-1}: the definition the descent walk replaced."""
    w, _ = aw.w_lambda(rs, lam)
    letters = hb.word_letters(rs, aw.aff_inv(rs, w), inverse=True)
    return ek._act(rs, ek.m0(rs), letters)


def _wlen(rs, lam):
    return aw.aff_length(rs, aw.w_lambda(rs, lam)[0])


@pytest.fixture
def checked_descents(monkeypatch):
    """Check every step the walk takes: m_mu . T_s = m_lam and len(w_mu) =
    len(w_lam) - 1, or no step only where len(w_lam) = 0.  A step that
    stays put or climbs then fails at once instead of walking forever."""
    descent = ek._descent

    def checked(rs, lam):
        step = descent(rs, lam)
        if step is None:
            assert _wlen(rs, lam) == 0, lam
        else:
            gid, mu = step
            assert ek._basis_gen_action(rs, mu, gid, 1) == ((lam, ONE),), \
                (lam, step)
            assert _wlen(rs, mu) == _wlen(rs, lam) - 1, (lam, step)
        return step
    monkeypatch.setattr(ek, "_descent", checked)


@pytest.mark.parametrize("spec,radius", [
    ("A1", 4), ("A2", 3), ("B2", 3), ("G2", 2), ("A3", 2), ("B3", 1),
    ("C3", 1), ("D4", 1), ("A1xA2", 1)])
def test_delta_class_matches_the_reduced_word_oracle(spec, radius,
                                                     checked_descents):
    """Every weight of the box and a few outside it, asked in a shuffled
    order on a fresh root system, so the walks stop at memoised classes in
    every pattern; the oracle runs on a root system of its own."""
    rs, oracle_rs = build_root_system(spec), build_root_system(spec)
    rng = random.Random(23)
    box = aw.weight_box(rs, radius)
    outside = [lam for lam in aw.weight_box(rs, radius + 1) if lam not in box]
    weights = box + rng.sample(outside, min(4, len(outside)))
    rng.shuffle(weights)
    for lam in weights:
        assert ek.delta_class(rs, lam) == delta_class_oracle(oracle_rs, lam), \
            lam
    assert set(rs.memo("delta_class")) == set(weights)


def test_delta_walk_stops_at_the_memo(monkeypatch, checked_descents):
    """A cold Delta^lam applies len(w_lam) letters and stores one class;
    after Delta^mu, a lam one descent above mu applies one letter."""
    applied = []
    act = ek._act

    def counted(rs, c, letters):
        letters = tuple(letters)
        applied.append(len(letters))
        return act(rs, c, letters)
    monkeypatch.setattr(ek, "_act", counted)
    rng = random.Random(29)
    for spec, radius in [("A2", 3), ("B2", 2), ("G2", 2), ("D4", 1)]:
        box = aw.weight_box(get_rs(spec), radius)
        for lam in rng.sample(box, 6):
            rs = build_root_system(spec)
            ek.delta_class(rs, lam)
            assert applied[-1] == _wlen(rs, lam), (spec, lam)
            assert list(rs.memo("delta_class")) == [lam], (spec, lam)
            step = ek._descent(rs, lam)
            if step is None:
                continue
            rs = build_root_system(spec)
            ek.delta_class(rs, step[1])
            applied.clear()
            ek.delta_class(rs, lam)
            assert applied == [1], (spec, lam)
            assert set(rs.memo("delta_class")) == {lam, step[1]}


# ---------------------------------------------------------------------------
# Line bundles by reflection steps


@pytest.fixture
def sweeps(monkeypatch):
    """Count the theta sweeps the line-bundle table falls back to."""
    calls = []
    sweep = ek.line_bundle_class

    def counted(rs, lam):
        calls.append(lam)
        return sweep(rs, lam)
    monkeypatch.setattr(ek, "line_bundle_class", counted)
    return calls


@pytest.mark.parametrize("spec,radius", [
    ("A1", 4), ("A2", 3), ("B2", 3), ("G2", 2), ("A3", 2), ("B3", 1),
    ("C3", 1), ("A1xA2", 1)])
def test_line_bundle_table_matches_the_sweep_on_module_weights(spec, radius):
    """On every weight of the Weyl module of each dominant lam the
    reflection steps give m_0 . theta_mu, filled on a fresh root system."""
    rs = build_root_system(spec)
    for lam in aw.dominant_box(rs, radius):
        weights = ch.module_weights(rs, lam)
        table = ek._line_bundles(rs, weights)
        for mu in weights:
            assert table[mu] == ek.line_bundle_class(rs, mu), (lam, mu)


@pytest.mark.parametrize("spec", ["A1", "A2", "B2", "G2", "A1xA2"])
def test_line_bundle_table_on_arbitrary_weight_tables(spec, sweeps):
    """Weight tables that are not W-saturated reach the sweep, and the sum
    from m_0 still equals the per-weight sum of sweeps."""
    rs = build_root_system(spec)
    rng = random.Random(17)
    box = aw.weight_box(rs, 3)
    m0 = ek.m0(rs)
    for _ in range(8):
        weights = {mu: rng.choice((0, 1, 2)) for mu in rng.sample(box, 6)}
        got = ek.tensor_class(rs, weights, m0)
        assert got == tensor_class_oracle(rs, weights, m0), weights
    assert sweeps
    for mu, cls in rs.memo("line_bundle").items():
        assert cls == ek._act(rs, m0, hb.theta_letters(rs, mu)), mu


def test_module_tables_make_no_sweep(sweeps):
    """A G-module weight table is filled by reflection steps alone, and a
    lone antidominant weight by exactly one sweep."""
    for spec, lam in [("G2", (2, 2)), ("B3", (1, 1, 1))]:
        rs = build_root_system(spec)
        weights = ch.module_weights(rs, lam)
        ek.tensor_class(rs, weights, ek.m0(rs))
        assert set(weights) <= set(rs.memo("line_bundle"))
        assert sweeps == [], spec
    rs = build_root_system("B2")
    ek.tensor_class(rs, {(-3, -3): 1}, ek.m0(rs))
    assert sweeps == [(-3, -3)]
    ek.tensor_class(rs, {(-3, -3): 2, (1, 0): 1}, ek.m0(rs))
    assert sweeps == [(-3, -3)]

