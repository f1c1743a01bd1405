"""Invariant suites behind the CLI ``verify`` subcommand.

Each suite returns a list of Report objects; a suite passes when every
report does.  Randomized checks take an explicit seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from operator import mul

from .laurent import LaurentPoly, ONE, VINV, V_MINUS_VINV
from .rootdata import RootSystem, closure
from . import affweyl, exotic_k, heckebraid, rootdata, tiltmult
from .charring import CharacterMultiset, WEYL_BASIS
from .affweyl import (AffineElement, aff_length, aff_mul, simple_generators,
                      t_lambda)
from .heckebraid import (BraidWord, HeckeElement, mul_basis, mul_basis_inv,
                         mul_gen, mul_theta, theta)

# Budgets on the weight box (2 radius + 1)^rank of a run, checked before any
# suite starts.  BOX_BOUND caps the weights, which every suite walks: it
# admits the default radius 2 up to rank 7 (E7 then trips the Weyl-group
# bound).  PAIR_BOUND caps the comparisons of the order suite, box * (box +
# |W|): every pair of weights, and every weight against every Weyl element.
# At some 60 us a comparison that is about two minutes; it admits the
# default radius up to rank 4.
BOX_BOUND = 10**5
PAIR_BOUND = 2 * 10**6
# BERNSTEIN_BOUND caps the work of relation (2) of the bernstein suite,
# theta_lam theta_mu over every pair of its box: sum_lam |theta_lam| (terms)
# times sum_mu len(t_mu+) + len(t_mu-) (the letters of theta_mu).  A unit
# took 30 us (A2, radius 3) to 110 us (B3, radius 1), so that is at most
# some 20 seconds; it admits B2 at radius 2 (115290) and A3 at radius 1
# (82800), and refuses G2 and A3 at radius 2.  BERNSTEIN_PAIR_BOUND caps
# relation (1), which walks every pair of W x W whatever the radius: a pair
# took 22 us (B3) to 33 us (D4), 31 us over the 518400 pairs of A5, so that
# is at most some 20 seconds; it admits A5, B4, C4 and D4, and refuses F4
# (1327104 pairs), D5, B5 and E6.
BERNSTEIN_BOUND = 2 * 10**5
BERNSTEIN_PAIR_BOUND = 6 * 10**5


@dataclass
class Report:
    """Checks made by one suite, and the details of those that failed."""

    name: str
    checked: int = 0
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, ok: bool, detail: str):
        self.checked += 1
        if not ok:
            self.failures.append(detail)

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        out = f"{self.name}: {status} ({self.checked} checks)"
        for f in self.failures[:5]:
            out += f"\n  counterexample: {f}"
        if len(self.failures) > 5:
            out += f"\n  ... {len(self.failures) - 5} more"
        return out


def verify_bernstein(rs, box_radius: int) -> Report:
    """Check the Bernstein presentation relations (1)-(4) inside H."""
    report = Report(f"bernstein[{rs.spec}, radius {box_radius}]")
    box = affweyl.weight_box(rs, box_radius)

    # (1) T_u T_w = T_{uw} for finite u, w with additive lengths
    welts = rs.weyl_group()
    for u in welts:
        au = AffineElement(u.matrix, rs.zero())
        for w in welts:
            aw = AffineElement(w.matrix, rs.zero())
            uw = aff_mul(rs, au, aw)
            if aff_length(rs, uw) != u.length + w.length:
                continue
            lhs = mul_basis(rs, HeckeElement.basis(au), aw, "right")
            report.check(
                lhs == HeckeElement.basis(uw),
                f"(1) fails at lengths {u.length},{w.length}",
            )

    # (2) theta_lam theta_mu = theta_{lam+mu}
    for lam in box:
        for mu in box:
            lhs = mul_theta(rs, theta(rs, lam), mu)
            report.check(
                lhs == theta(rs, rs.add(lam, mu)),
                f"(2) fails at lam={lam}, mu={mu}",
            )

    # (3) and (4) per simple root
    for i in range(rs.rank):
        alpha = rs.simple_roots[i]
        for lam in box:
            pair = lam[i]
            if pair == 0:
                lhs = mul_gen(rs, theta(rs, lam), i + 1, "left")
                rhs = mul_gen(rs, theta(rs, lam), i + 1, "right")
                report.check(lhs == rhs, f"(3) fails at lam={lam}, i={i}")
            elif pair == 1:
                inner = theta(rs, rs.sub(lam, alpha))
                rhs = mul_gen(rs, mul_gen(rs, inner, i + 1, "right"), i + 1, "left")
                report.check(theta(rs, lam) == rhs,
                             f"(4) fails at lam={lam}, i={i}")
    return report


def verify_t_translation_conjugation(rs, box_radius: int) -> Report:
    """Check T_{t_lam} = T_{w^-1} theta_{w lam} (T_{w^-1})^{-1} for the
    minimal w making w(lam) dominant."""
    report = Report(f"t-conjugation[{rs.spec}, radius {box_radius}]")
    for lam in affweyl.weight_box(rs, box_radius):
        dom, v, _ = rs.dominant_rep(lam)
        vinv = AffineElement(rs.mat_inv(v.matrix), rs.zero())
        rhs = mul_basis_inv(rs, theta(rs, dom), vinv, "right")
        rhs = mul_basis(rs, rhs, vinv, "left")
        lhs = HeckeElement.basis(affweyl.t_lambda(rs, lam))
        report.check(lhs == rhs, f"fails at lam={lam}")
    return report


def suite_bernstein(rs: RootSystem, radius: int, seed: int = 0):
    return [
        verify_bernstein(rs, min(radius, 2)),
        verify_t_translation_conjugation(rs, radius),
    ]


def reflection_closure(rs: RootSystem, lam):
    """The weights mu >= lam of the W-orbit of lam, by a walk that does not
    touch W_aff: the closure of x -> s_b(x) = x - <x, b_vee> b over the
    positive roots b with <x, b_vee> < 0, the steps with s_b(x) - x in
    Z_{>0} b."""
    def up(x):
        return [tuple([a - c * b for a, b in zip(x, root.coords)])
                for root in rs.positive_roots
                if (c := sum(map(mul, root.coroot, x))) < 0]
    return set(closure([lam], up))


def suite_order(rs: RootSystem, radius: int, seed: int = 0):
    """Length invariants, the order on weights and the group Omega.

    The order lam <= mu (w_lam <= w_mu in the Bruhat order) is checked
    three ways on each pair of the box in one coset of X / Z.Phi: it implies
    dom(lam) <= dom(mu) in the dominance order; on two dominant weights it
    is the dominance order; and on one W-orbit it is the reflection
    closure above.  The last rests on the Bruhat order on W / W_lam being
    generated by reflections (Bjorner-Brenti, Combinatorics of Coxeter
    Groups, GTM 231, section 2.5).  On one orbit the order is not the
    dominance order from rank 3 on: in A3, (-2,1,0) and (0,-1,2) differ by
    alpha_1 + alpha_3 >= 0, but no reflection step joins them.
    """
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
    above = {}
    for lam in box:
        for mu in box:
            leq = affweyl.order_leq_weights(rs, lam, mu)
            same_coset = rs.root_coords_int(rs.sub(mu, lam)) is not None
            if not same_coset:
                order_rep.check(not leq, f"cross-coset comparable: {lam},{mu}")
                continue
            order_rep.check(
                not leq or rs.dominance_leq(rs.dom(lam), rs.dom(mu)),
                f"lam <= mu but not dom(lam) <= dom(mu) at {lam},{mu}",
            )
            if rs.is_dominant(lam) and rs.is_dominant(mu):
                order_rep.check(
                    leq == rs.dominance_leq(lam, mu),
                    f"order/dominance mismatch at {lam},{mu}",
                )
            elif rs.dom(lam) == rs.dom(mu):
                if lam not in above:
                    above[lam] = reflection_closure(rs, lam)
                order_rep.check(
                    leq == (mu in above[lam]),
                    f"order/reflection-closure mismatch at {lam},{mu}",
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
                + once.scale(V_MINUS_VINV)
                - c
            )
            quad.check(not val, f"quadratic fails at m_{lam}, s={gid}")

    sph = Report(f"spherical-character[{rs.spec}]")
    for w in rs.weyl_group():
        x = affweyl.AffineElement(w.matrix, rs.zero())
        sph.check(
            exotic_k.act_hecke(rs, m0, HeckeElement.basis(x))
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
            exotic_k.act_hecke(rs, m0, HeckeElement.basis(x))
            == exotic_k.KClass.basis(lam).scale(LaurentPoly.v(shift)),
            f"m_0 . T_x formula fails at x = w t_{lam}",
        )

    axioms = Report(f"module-axioms[{rs.spec}, seed {seed}]")
    words = []
    for _ in range(12):
        gids = [rng.choice(order) for _ in range(rng.randint(0, 4))]
        word = BraidWord(tuple(("s", gid, 1) for gid in gids))
        words.append((gids, heckebraid.evaluate_word(rs, word)))
    for wa, xi in words[:6]:
        for wb, eta in words[6:]:
            c = exotic_k.KClass.basis(rng.choice(box))
            lhs = exotic_k.act_hecke(rs, c, heckebraid.hecke_mul(rs, xi, eta))
            rhs = exotic_k.act_hecke(rs, exotic_k.act_hecke(rs, c, xi), eta)
            axioms.check(lhs == rhs, f"module axiom fails on words {wa},{wb}")

    shadow = Report(f"costandard-reflection-shadow[{rs.spec}, radius {radius}]")
    for lam in box:
        nab0 = exotic_k.KClass.basis(lam).scale(LaurentPoly.v(rs.delta(lam)))
        for i in range(rs.rank):
            slam = rs.apply(rs.simple_reflection_matrix(i), lam)
            inverse = BraidWord((("s", i + 1, -1),))
            acted = exotic_k.act_hecke(rs, nab0, inverse)
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
            d.coefficient(lam) == ONE,
            f"delta diagonal not 1 at {lam}",
        )
        for mu in d.terms:
            if mu != lam:
                tri.check(
                    affweyl.order_leq_weights(rs, mu, lam),
                    f"delta support not below at {lam}: {mu}",
                )
    return [quad, sph, jformula, axioms, shadow, tri]


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
    if "bernstein" in names:
        size = rs.weyl_order()
        if size > rootdata.WEYL_BOUND:
            rs.weyl_group()   # raises the enumeration bound's error at once
        if size * size > BERNSTEIN_PAIR_BOUND:
            raise ValueError(
                f"relation (1) of the bernstein suite on {rs.spec} walks "
                f"{size * size} pairs of Weyl group elements, above the bound "
                f"{BERNSTEIN_PAIR_BOUND}"
            )
        box_radius = min(radius, 2)
        work = _bernstein_work(rs, box_radius)
        if work > BERNSTEIN_BOUND:
            raise ValueError(
                f"the bernstein suite on the weight box of radius "
                f"{box_radius} on {rs.spec} makes an estimated {work} or more "
                f"sweep steps, above the bound {BERNSTEIN_BOUND}"
            )


def _bernstein_work(rs: RootSystem, radius: int) -> int:
    """The work estimate of BERNSTEIN_BOUND on the box of the given radius.
    Each theta_lam counts one term until it is computed, and the thetas
    (memoised for the suite) are computed only while the estimate is within
    the bound, so a refused box costs little more than the bound allows."""
    box = affweyl.weight_box(rs, radius)
    letters = sum(
        aff_length(rs, t_lambda(rs, mu)) + aff_length(rs, t_lambda(rs, nu))
        for mu, nu in (heckebraid.theta_decomposition(rs, lam) for lam in box)
    )
    terms = len(box)
    for lam in box:
        if terms * letters > BERNSTEIN_BOUND:
            break
        terms += len(theta(rs, lam).terms) - 1
    return terms * letters


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
