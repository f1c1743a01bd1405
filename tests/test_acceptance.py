"""Acceptance suite: one test per criterion, exact equalities only.

Each test prints a single pass line (with timing) on success; run with
``pytest tests/test_acceptance.py -v -s`` to see them.
"""

import itertools
import random
import time

from exotictilt import affweyl as aw, charring as ch, exotic_k as ek, \
    heckebraid as hb, tiltmult as tm, verify
from exotictilt.charring import CharacterMultiset
from exotictilt.exotic_k import KClass
from exotictilt.laurent import LaurentPoly, ONE, VINV_MINUS_V

from conftest import get_rs


class timer:
    def __init__(self, name, limit):
        self.name, self.limit = name, limit

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, *exc):
        elapsed = time.monotonic() - self.t0
        if exc_type is None:
            assert elapsed < self.limit, \
                f"{self.name}: {elapsed:.2f}s exceeds {self.limit}s"
            print(f"{self.name}: pass ({elapsed:.2f}s)")
        else:
            print(f"{self.name}: FAIL after {elapsed:.2f}s")
        return False


def test_criterion_01_hecke_relations():
    with timer("criterion 1 (Hecke relations A1,A2,B2,G2)", 5.0):
        for spec in ["A1", "A2", "B2", "G2"]:
            rs = get_rs(spec)
            gens = aw.simple_generators(rs)
            gen_set = set(gens.values())
            for g in gens.values():
                ts = hb.T(rs, g)
                assert hb.hecke_mul(rs, ts, ts) == \
                    hb.unit(rs) + ts.scale(VINV_MINUS_V)
            for sid, tid in itertools.combinations(gens, 2):
                prod = aw.aff_mul(rs, gens[sid], gens[tid])
                m, acc = 1, prod
                while acc != aw.identity(rs) and m <= 6:
                    acc = aw.aff_mul(rs, acc, prod)
                    m += 1
                if m > 6:
                    continue
                left = hb.unit(rs)
                right = hb.unit(rs)
                for k in range(m):
                    left = hb.mul_gen(rs, left, sid if k % 2 == 0 else tid)
                    right = hb.mul_gen(rs, right, tid if k % 2 == 0 else sid)
                assert left == right, (spec, sid, tid)
            for om in aw.omega_elements(rs).values():
                for g in gens.values():
                    conj = aw.aff_mul(rs, aw.aff_mul(rs, om, g),
                                      aw.aff_inv(rs, om))
                    assert conj in gen_set
                    lhs = hb.mul_basis(
                        rs,
                        hb.mul_basis(rs, hb.T(rs, g), aw.aff_inv(rs, om)),
                        om, "left",
                    )
                    assert lhs == hb.T(rs, conj)


def test_criterion_02_bernstein_presentation():
    with timer("criterion 2 (Bernstein relations, radius 2)", 30.0):
        for spec in ["A1", "A2", "B2"]:
            rep = verify.verify_bernstein(get_rs(spec), 2)
            assert rep.passed, rep.summary()


def test_criterion_03_translation_conjugation():
    with timer("criterion 3 (T_t conjugation identity, radius 3)", 30.0):
        for spec in ["A1", "A2", "B2"]:
            rep = verify.verify_t_translation_conjugation(get_rs(spec), 3)
            assert rep.passed, rep.summary()


def test_criterion_04_w_lambda():
    with timer("criterion 4 (w_lambda length and minimality, radius 4)", 10.0):
        for spec in ["A1", "A2", "B2", "G2", "A1xA1", "A3"]:
            rs = get_rs(spec)
            gens = aw.simple_generators(rs)
            for lam in itertools.product(range(-4, 5), repeat=rs.rank):
                elt, d = aw.w_lambda(rs, lam)
                ll = aw.aff_length(rs, elt)
                assert ll == aw.aff_length(rs, aw.t_lambda(rs, lam)) - d
                for i in range(rs.rank):
                    assert aw.aff_length(
                        rs, aw.aff_mul(rs, gens[i + 1], elt)) > ll


def test_criterion_05_order_on_weights():
    with timer("criterion 5 (order vs dominance, radius 3)", 20.0):
        for spec in ["A1", "A2", "B2"]:
            rs = get_rs(spec)
            box = aw.weight_box(rs, 3)
            for lam in box:
                for mu in box:
                    leq = aw.order_leq_weights(rs, lam, mu)
                    if rs.root_coords_int(rs.sub(mu, lam)) is None:
                        assert not leq, (spec, lam, mu)
                        continue
                    if (rs.is_dominant(lam) and rs.is_dominant(mu)) or \
                            rs.dom(lam) == rs.dom(mu):
                        assert leq == rs.dominance_leq(lam, mu), \
                            (spec, lam, mu)


def test_criterion_06_exotic_class_anchors():
    with timer("criterion 6 (line-bundle anchors, triangularity)", 20.0):
        for spec in ["A1", "A2", "B2"]:
            rs = get_rs(spec)
            for lam in aw.weight_box(rs, 3):
                cls = ek.line_bundle_class(rs, lam)
                if rs.is_dominant(lam):
                    assert cls == KClass.basis(lam), (spec, lam)
                if all(a <= 0 for a in lam):
                    expected = ek.delta_class(rs, lam).scale(
                        LaurentPoly.v(rs.delta(lam)))
                    assert cls == expected, (spec, lam)
                d = ek.delta_class(rs, lam)
                assert d.coefficient(lam) == ONE, (spec, lam)
                for mu in d.terms:
                    assert aw.order_leq_weights(rs, mu, lam), (spec, lam, mu)


def test_criterion_07_flagship_reconciliation():
    with timer("criterion 7 (tensor vs costandard expansion)", 60.0):
        for spec in ["A1", "A2", "B2"]:
            rs = get_rs(spec)
            for nu in itertools.product(range(3), repeat=rs.rank):
                cm = CharacterMultiset.of(rs, {nu: 1}, "good")
                rep = tm.reconcile(rs, cm)
                assert rep.matched, (spec, nu, rep.detail)


def test_criterion_08_dominant_tilting_vs_bott_samelson():
    with timer("criterion 8 (dominant tilting vs Bott-Samelson)", 10.0):
        a1 = get_rs("A1")
        om = aw.omega_of_weight(a1, (1,))
        bs = ek.bott_samelson_class(a1, om, [1])
        tilt = tm.dominant_tilting_class(a1, (1,))
        expect = KClass.basis((1,)) + KClass.basis((-1,)).scale(LaurentPoly.v(1))
        assert bs == tilt == expect

        a2 = get_rs("A2")
        wl, _ = aw.w_lambda(a2, (1, 0))
        omega, word = aw.reduced_word(a2, wl)
        bs = ek.bott_samelson_class(a2, omega, list(reversed(word)))
        tilt = tm.dominant_tilting_class(a2, (1, 0))
        diff = bs - tilt
        assert diff.is_nonneg()
        for mu in diff.terms:
            assert mu != (1, 0) and aw.order_leq_weights(a2, mu, (1, 0)), mu


def test_criterion_09_q_analogue_oracles():
    with timer("criterion 9 (Lusztig vs Freudenthal, radius 3)", 30.0):
        assert ch.lusztig_q(get_rs("A2"), (1, 1), (0, 0)) == \
            LaurentPoly({1: 1, 2: 1})
        for spec in ["A1", "A2", "B2", "G2"]:
            rs = get_rs(spec)
            doms = list(itertools.product(range(4), repeat=rs.rank))
            for lam in doms:
                for mu in doms:
                    q = ch.lusztig_q(rs, lam, mu)
                    assert q(1) == ch.freudenthal_mult(rs, lam, mu), \
                        (spec, lam, mu)
                    if q:
                        assert rs.dominance_leq(mu, lam), (spec, lam, mu)


def test_criterion_10_bott_samelson_positivity():
    with timer("criterion 10 (random Bott-Samelson positivity)", 60.0):
        rng = random.Random(2024)
        for spec in ["A1", "A2", "B2"]:
            rs = get_rs(spec)
            order = aw.generator_order(rs)
            omegas = list(aw.omega_elements(rs).values())
            for k in range(200):
                om = omegas[k % len(omegas)]     # all Omega twists
                seq = [rng.choice(order) for _ in range(rng.randint(0, 6))]
                cls = ek.bott_samelson_class(rs, om, seq)
                assert cls.is_nonneg(), (spec, om.t, seq)
