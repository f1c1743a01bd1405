import itertools

import pytest

from exotictilt import affweyl as aw, charring, exotic_k as ek, tiltmult as tm
from exotictilt.charring import CharacterMultiset
from exotictilt.exotic_k import KClass
from exotictilt.laurent import LaurentPoly, ONE, ZERO

from conftest import get_rs


def weyl_char(rs, mults):
    return CharacterMultiset.of(rs, mults, "Weyl")


def good_char(rs, mults):
    return CharacterMultiset.of(rs, mults, "good")


def relabel(cm, basis_kind):
    """cm read in the other filtration basis (valid character-wise in
    characteristic zero)."""
    return CharacterMultiset(cm.mults, basis_kind)


def test_gamma_examples(a1):
    assert tm.gamma_graded_char(a1, (0,), (0,)) == ONE
    assert tm.gamma_graded_char(a1, (0,), (2,)) == LaurentPoly({2: 1})
    assert tm.gamma_graded_char(a1, (1,), (1,)) == ONE
    with pytest.raises(ValueError):
        tm.gamma_graded_char(a1, (-1,), (0,))


def test_std_mult_examples(a1):
    V = weyl_char(a1, {(1,): 1})
    assert tm.std_mult(a1, V, (1,)) == ONE
    assert tm.std_mult(a1, V, (-1,)) == LaurentPoly({-1: 1})
    assert tm.std_mult(a1, V, (0,)) == ZERO
    with pytest.raises(ValueError):
        tm.std_mult(a1, good_char(a1, {(1,): 1}), (1,))


def test_costd_mult_examples(a1):
    V = good_char(a1, {(1,): 1})
    assert tm.costd_mult(a1, V, (1,)) == ONE
    assert tm.costd_mult(a1, V, (-1,)) == LaurentPoly({1: 1})
    triv = good_char(a1, {(0,): 1})
    assert tm.costd_mult(a1, triv, (1,)) == ZERO
    assert tm.costd_mult(a1, triv, (0,)) == ONE
    with pytest.raises(ValueError):
        tm.costd_mult(a1, weyl_char(a1, {(1,): 1}), (1,))


def test_dominant_tilting_examples(a1):
    V = LaurentPoly.v(1)
    assert tm.dominant_tilting_class(a1, (0,)) == ek.m0(a1)
    assert tm.dominant_tilting_class(a1, (1,)) == \
        KClass.basis((1,)) + KClass.basis((-1,)).scale(V)
    # frozen via two independent routes: the costandard formula and the
    # line-bundle filtration both give v^2 on m_0 and v on m_{-2}
    got = tm.dominant_tilting_class(a1, (2,))
    expect = KClass.basis((2,)) + ek.m0(a1).scale(LaurentPoly({2: 1})) + \
        KClass.basis((-2,)).scale(V)
    assert got == expect


def test_dominant_tilting_matches_bott_samelson_a1(a1):
    om = aw.omega_of_weight(a1, (1,))
    assert tm.dominant_tilting_class(a1, (1,)) == \
        ek.bott_samelson_class(a1, om, [1])


def test_dominant_tilting_custom_character(a2):
    # a reducible "tilting character" is just additive in the formulas
    V = weyl_char(a2, {(1, 1): 1, (0, 0): 2})
    got = tm.dominant_tilting_class(a2, (1, 1), V)
    base = tm.dominant_tilting_class(a2, (1, 1))
    assert got == base + ek.m0(a2).scale(2)
    with pytest.raises(ValueError):
        tm.dominant_tilting_class(a2, (1, 1), good_char(a2, {(1, 1): 1}))
    with pytest.raises(ValueError):
        tm.dominant_tilting_class(a2, (-1, 0))


@pytest.mark.parametrize("mults", [
    {(1, 0): 1},                    # M(lam) missing
    {(1, 1): 2},                    # M(lam) twice
    {(1, 1): 1, (3, 0): 1},         # (3, 0) is not <= (1, 1)
    {(1, 1): 1, (2, 0): 1},         # (2, 0) - (1, 1) is not in Z.Phi
])
def test_dominant_tilting_class_refuses_other_highest_weights(a2, mults):
    with pytest.raises(ValueError, match="M\\(lam\\) once"):
        tm.dominant_tilting_class(a2, (1, 1), weyl_char(a2, mults))


def test_unit_multiplicity_of_top_standard():
    """(T(lam) (x) O : Delta^lam) = 1 for the default character."""
    for spec in ["A1", "A2", "B2"]:
        rs = get_rs(spec)
        for lam in itertools.product(range(2), repeat=rs.rank):
            V = weyl_char(rs, {lam: 1})
            assert tm.std_mult(rs, V, lam) == ONE


def test_mult_nonnegativity(a2, b2):
    for rs in (a2, b2):
        V = weyl_char(rs, {(1, 1): 1, (1, 0): 2})
        for mu in aw.weight_box(rs, 2):
            assert tm.std_mult(rs, V, mu).is_nonneg()
            assert tm.costd_mult(rs, relabel(V, "good"), mu).is_nonneg()


def test_std_support_bound(b2):
    V = weyl_char(b2, {(1, 1): 1})
    for mu in aw.weight_box(b2, 2):
        if tm.std_mult(b2, V, mu):
            assert b2.dominance_leq(b2.dom(mu), (1, 1))


def per_weight_expansion(rs, cm):
    """The per-weight path: costd_mult at every weight of the W-orbits of
    the dominant weights below the support, each its own q-analogue sum."""
    good = relabel(cm, "good")
    terms = {}
    for nu, _ in cm.mults:
        for d in rs.dominant_below(nu):
            for mu in rs.weyl_orbit(d):
                terms[mu] = tm.costd_mult(rs, good, mu)
    return KClass(terms)


@pytest.mark.parametrize("spec, top", [
    ("A1", 4), ("A2", 3), ("B2", 3), ("G2", 2), ("A3", 2)])
def test_costandard_expansion_matches_per_weight_oracle(spec, top):
    rs = get_rs(spec)
    box = list(itertools.product(range(top + 1), repeat=rs.rank))
    chars = [{lam: 1} for lam in box]
    chars += [{lam: 1, mu: 2} for lam, mu in zip(box, box[1:])]
    for mults in chars:
        for cm in (weyl_char(rs, mults), good_char(rs, mults)):
            assert tm.costandard_expansion(rs, cm) == \
                per_weight_expansion(rs, cm), (spec, mults, cm.basis_kind)


def test_dominant_tilting_class_makes_one_q_sum_per_dominant_weight(
        monkeypatch):
    rs = get_rs("A3")
    rho = (1, 1, 1)
    calls = []
    real = charring.lusztig_q

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(charring, "lusztig_q", counted)
    tm.dominant_tilting_class(rs, rho)
    assert len(calls) == len(rs.dominant_below(rho))


def test_reconcile_examples(a1):
    assert tm.reconcile(a1, good_char(a1, {(1,): 1})).matched
    assert tm.reconcile(a1, good_char(a1, {(0,): 1})).matched
    a2 = get_rs("A2")
    assert tm.reconcile(a2, good_char(a2, {(1, 1): 1})).matched


def test_reconcile_boxes():
    for spec in ["A1", "A2", "B2", "A1xA1"]:
        rs = get_rs(spec)
        for nu in itertools.product(range(3 if rs.rank == 1 else 2),
                                    repeat=rs.rank):
            rep = tm.reconcile(rs, good_char(rs, {nu: 1}))
            assert rep.matched, (spec, nu, rep.detail)


def test_reconcile_weyl_basis_input_accepted(a2):
    assert tm.reconcile(a2, weyl_char(a2, {(1, 0): 1})).matched


def test_reconcile_report_shape(a1):
    rep = tm.reconcile(a1, good_char(a1, {(2,): 1}))
    assert rep.status == "match" and rep.detail == []


def test_reconcile_mismatch_detail(a2, monkeypatch):
    """A costandard expansion off at three weights: one detail row each,
    sorted by weight, with both coefficients as [exponent, coefficient]
    pairs."""
    real = tm.costandard_expansion

    def rigged(rs, cm):
        terms = dict(real(rs, cm).terms)
        for mu in [(1, -2), (0, 0), (-2, 1)]:
            terms[mu] *= 2
        return KClass(terms)
    monkeypatch.setattr(tm, "costandard_expansion", rigged)
    rep = tm.reconcile(a2, good_char(a2, {(1, 1): 1}))
    assert not rep.matched and rep.status == "mismatch"
    assert rep.detail == [
        {"weight": [-2, 1], "tensor": [[2, 1]], "costandard": [[2, 2]]},
        {"weight": [0, 0], "tensor": [[2, 1], [4, 1]],
         "costandard": [[2, 2], [4, 2]]},
        {"weight": [1, -2], "tensor": [[2, 1]], "costandard": [[2, 2]]},
    ]
