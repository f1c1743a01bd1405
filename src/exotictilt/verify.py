"""Invariant suites behind the CLI ``verify`` subcommand.

Each suite returns a list of Report objects; a suite passes when every
report does.  Randomized checks take an explicit seed.
"""

from __future__ import annotations

import random

from .laurent import LaurentPoly, VINV
from .rootdata import RootSystem
from . import affweyl, exotic_k, heckebraid, tiltmult
from .charring import CharacterMultiset, WEYL_BASIS
from .affweyl import aff_length, aff_mul, simple_generators, t_lambda
from .heckebraid import HeckeElement, Report

# Budgets on the weight box (2 radius + 1)^rank of a run, checked before any
# suite starts.  BOX_BOUND caps the weights, which every suite walks: it
# admits the default radius 2 up to rank 7 (E7 then trips the Weyl-group
# bound).  PAIR_BOUND caps the comparisons of the order suite, box * (box +
# |W|): every pair of weights, and every weight against every Weyl element.
# At some 60 us a comparison that is about two minutes; it admits the
# default radius up to rank 4.
BOX_BOUND = 10**5
PAIR_BOUND = 2 * 10**6


def suite_bernstein(rs: RootSystem, radius: int, seed: int = 0):
    return [
        heckebraid.verify_bernstein(rs, min(radius, 2)),
        heckebraid.verify_t_translation_conjugation(rs, radius),
    ]


def suite_order(rs: RootSystem, radius: int, seed: int = 0):
    box = affweyl.weight_box(rs, radius)
    gens = simple_generators(rs)
    order = affweyl.generator_order(rs)

    lengths = Report(f"length-invariants[{rs.spec}, radius {radius}]")
    for lam in box:
        lt = aff_length(rs, t_lambda(rs, lam))
        for w in rs.weyl_group():
            lengths.check(
                aff_length(rs, t_lambda(rs, rs.apply(w.matrix, lam))) == lt,
                f"len(t_(w lam)) != len(t_lam) at lam={lam}",
            )
        x = affweyl.w_lambda(rs, lam)[0]
        for om in affweyl.omega_elements(rs).values():
            lengths.check(
                aff_length(rs, aff_mul(rs, om, x)) == aff_length(rs, x),
                f"len not Omega-invariant at lam={lam}",
            )
        for gid in order:
            diff = aff_length(rs, aff_mul(rs, x, gens[gid])) - aff_length(rs, x)
            lengths.check(abs(diff) == 1, f"exchange fails at lam={lam}, s={gid}")
        omega, word = affweyl.reduced_word(rs, x)
        back = omega
        for gid in word:
            back = aff_mul(rs, back, gens[gid])
        lengths.check(
            back == x and len(word) == aff_length(rs, x),
            f"reduced word round-trip fails at lam={lam}",
        )

    order_rep = Report(f"order-vs-dominance[{rs.spec}, radius {radius}]")
    for lam in box:
        for mu in box:
            leq = affweyl.order_leq_weights(rs, lam, mu)
            same_coset = rs.root_coords_int(rs.sub(mu, lam)) is not None
            if not same_coset:
                order_rep.check(not leq, f"cross-coset comparable: {lam},{mu}")
                continue
            both_dom = rs.is_dominant(lam) and rs.is_dominant(mu)
            same_orbit = rs.dom(lam) == rs.dom(mu)
            if both_dom or same_orbit:
                order_rep.check(
                    leq == rs.dominance_leq(lam, mu),
                    f"order/dominance mismatch at {lam},{mu}",
                )

    omega_rep = Report(f"omega-group[{rs.spec}]")
    oms = list(affweyl.omega_elements(rs).values())
    det = rs.cartan_det
    omega_rep.check(len(oms) == det, f"|Omega| = {len(oms)} != det A = {det}")
    for a in oms:
        for b in oms:
            ab, ba = aff_mul(rs, a, b), aff_mul(rs, b, a)
            omega_rep.check(
                aff_length(rs, ab) == 0 and ab == ba, "Omega not abelian"
            )
    return [lengths, order_rep, omega_rep]


def suite_module(rs: RootSystem, radius: int, seed: int = 0):
    rng = random.Random(seed)
    box = affweyl.weight_box(rs, radius)
    gens = simple_generators(rs)
    order = affweyl.generator_order(rs)
    m0 = exotic_k.m0(rs)

    quad = Report(f"quadratic-as-operators[{rs.spec}, radius {radius}]")
    for lam in box:
        c = exotic_k.KClass.basis(lam)
        for gid in order:
            once = exotic_k.act_simple(rs, c, gid)
            # (T_s - v^-1)(T_s + v) kills every basis class
            val = (
                exotic_k.act_simple(rs, once, gid)
                + once.scale(LaurentPoly({1: 1, -1: -1}))
                - c
            )
            quad.check(not val, f"quadratic fails at m_{lam}, s={gid}")

    sph = Report(f"spherical-character[{rs.spec}]")
    for w in rs.weyl_group():
        x = affweyl.AffineElement(w.matrix, rs.zero())
        sph.check(
            exotic_k.act_basis(rs, m0, x)
            == m0.scale(LaurentPoly.v(-w.length)),
            f"m_0 . T_w != v^-len(w) m_0 at length {w.length}",
        )

    jformula = Report(f"braid-action-normalization[{rs.spec}, radius {radius}]")
    for _ in range(40):
        w = rng.choice(rs.weyl_group())
        lam = rng.choice(box)
        x = affweyl.AffineElement(w.matrix, lam)
        wl, _ = affweyl.w_lambda(rs, lam)
        shift = aff_length(rs, wl) - aff_length(rs, x)
        jformula.check(
            exotic_k.act_basis(rs, m0, x)
            == exotic_k.KClass.basis(lam).scale(LaurentPoly.v(shift)),
            f"m_0 . T_x formula fails at x = w t_{lam}",
        )

    axioms = Report(f"module-axioms[{rs.spec}, seed {seed}]")
    words = []
    for _ in range(12):
        n = rng.randint(0, 4)
        words.append([rng.choice(order) for _ in range(n)])
    for wa in words[:6]:
        for wb in words[6:]:
            xi = _word_elt(rs, wa)
            eta = _word_elt(rs, wb)
            c = exotic_k.KClass.basis(rng.choice(box))
            lhs = exotic_k.act_hecke(rs, c, heckebraid.hecke_mul(rs, xi, eta))
            rhs = exotic_k.act_hecke(rs, exotic_k.act_hecke(rs, c, xi), eta)
            axioms.check(lhs == rhs, f"module axiom fails on words {wa},{wb}")

    shadow = Report(f"costandard-reflection-shadow[{rs.spec}, radius {radius}]")
    for lam in box:
        nab0 = exotic_k.KClass.basis(lam).scale(LaurentPoly.v(rs.delta(lam)))
        for i in range(rs.rank):
            slam = rs.apply(rs.simple_reflection_matrix(i), lam)
            acted = exotic_k.act_simple_inv(rs, nab0, i + 1)
            if slam == lam:
                expect = nab0.scale(LaurentPoly.v(1))
            elif rs.dominance_leq(slam, lam):
                expect = exotic_k.KClass.basis(slam).scale(
                    LaurentPoly.v(rs.delta(slam)) * VINV
                )
            else:
                continue
            shadow.check(acted == expect, f"shadow fails at lam={lam}, i={i}")

    tri = Report(f"delta-triangularity[{rs.spec}, radius {radius}]")
    for lam in box:
        d = exotic_k.delta_class(rs, lam)
        tri.check(
            d.coefficient(lam) == LaurentPoly.one(),
            f"delta diagonal not 1 at {lam}",
        )
        for mu in d.terms:
            if mu != lam:
                tri.check(
                    affweyl.order_leq_weights(rs, mu, lam),
                    f"delta support not below at {lam}: {mu}",
                )
    return [quad, sph, jformula, axioms, shadow, tri]


def _word_elt(rs, gids) -> HeckeElement:
    xi = heckebraid.unit(rs)
    for gid in gids:
        xi = heckebraid.mul_gen(rs, xi, gid, "right")
    return xi


def suite_anchors(rs: RootSystem, radius: int, seed: int = 0):
    """The invariants the K-module and the tilting classes rest on: the case
    split of the basis action, the minimality of w_lambda, the line-bundle
    anchors and the tensor oracle for dominant tilting classes."""
    box = affweyl.weight_box(rs, radius)
    gens = simple_generators(rs)
    order = affweyl.generator_order(rs)

    cases = Report(f"gen-action-cases[{rs.spec}, radius {radius}]")
    minimal = Report(f"w-lambda-minimal[{rs.spec}, radius {radius}]")
    lines = Report(f"line-bundle-anchors[{rs.spec}, radius {radius}]")
    for lam in box:
        w, _ = affweyl.w_lambda(rs, lam)
        wlen = aff_length(rs, w)
        # m_lam . T_s: u = w_lam s is minimal in its coset exactly when the
        # step leaves the coset of lam
        for gid in order:
            u = aff_mul(rs, w, gens[gid])
            if u.t == lam:
                case = "coset-stable"
            elif aff_length(rs, u) == wlen + 1:
                case = "ascent"
            else:
                case = "descent"
            cases.check(
                (u == affweyl.w_lambda(rs, u.t)[0]) == (u.t != lam),
                f"{case} step at lam={lam}, s={gid}",
            )
        minimal.check(
            all(aff_length(rs, aff_mul(rs, gens[i + 1], w)) > wlen
                for i in range(rs.rank)),
            f"w_lambda has a finite left descent at lam={lam}",
        )
        line = exotic_k.line_bundle_class(rs, lam)
        if rs.is_dominant(lam):
            lines.check(line == exotic_k.KClass.basis(lam),
                        f"dominant anchor fails at lam={lam}")
        if all(a <= 0 for a in lam):
            dl = exotic_k.delta_class(rs, lam).scale(LaurentPoly.v(rs.delta(lam)))
            lines.check(line == dl, f"antidominant anchor fails at lam={lam}")

    tensor = Report(f"tilting-tensor-oracle[{rs.spec}, radius {min(radius, 2)}]")
    for lam in affweyl.dominant_box(rs, min(radius, 2)):
        cm = CharacterMultiset.of(rs, {lam: 1}, WEYL_BASIS)
        rep = tiltmult.reconcile(rs, cm)
        tensor.check(rep.matched, f"tensor oracle mismatch at lam={lam}: "
                                  f"{rep.detail[:3]}")
    return [cases, minimal, lines, tensor]


SUITES = {
    "bernstein": suite_bernstein,
    "module": suite_module,
    "order": suite_order,
    "anchors": suite_anchors,
}


def _check_budget(rs: RootSystem, names, radius: int) -> None:
    size = (2 * radius + 1) ** rs.rank
    if size > BOX_BOUND:
        raise ValueError(
            f"the weight box of radius {radius} on {rs.spec} holds {size} "
            f"weights, above the bound {BOX_BOUND}"
        )
    if "order" in names:
        pairs = size * (size + rs.weyl_order())
        if pairs > PAIR_BOUND:
            raise ValueError(
                f"the order suite on the weight box of radius {radius} on "
                f"{rs.spec} makes {pairs} comparisons, above the bound "
                f"{PAIR_BOUND}"
            )


def run_suites(rs: RootSystem, which: str, radius: int, seed: int = 0):
    if which == "all":
        names = list(SUITES)
    elif which in SUITES:
        names = [which]
    else:
        raise ValueError(f"unknown suite {which!r}")
    _check_budget(rs, names, radius)
    reports = []
    for name in names:
        reports.extend(SUITES[name](rs, radius, seed))
    return reports
