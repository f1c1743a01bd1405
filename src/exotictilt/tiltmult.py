"""Graded multiplicity formulas for dominant tilting classes.

For a module V with a Weyl filtration, V (x) O has a standard filtration with

    sum_i (V(x)O : Delta^mu<i>) v^i
        = v^{-delta(mu)} sum_nu (V : M(nu)) M_nu^{dom(mu)}(v^-2),

and for V with a good filtration, V (x) O has a costandard filtration with

    sum_i (V(x)O : nabla^mu<i>) v^i
        = v^{delta(mu)} sum_nu (V : N(-w_0 nu)) M_nu^{dom(-mu)}(v^2).

The dominant tilting class T^lam is T(lam) (x) O; by default T(lam) is taken
with its characteristic-zero character M(lam).  The same K-class is computed
independently by the line-bundle filtration of V (x) O (tensor_class), which
``reconcile`` compares coefficient by coefficient.
"""

from __future__ import annotations

from typing import NamedTuple

from .laurent import LaurentPoly, ZERO
from .rootdata import RootSystem, Weight
from . import charring, exotic_k
from .charring import CharacterMultiset, GOOD_BASIS, WEYL_BASIS
from .exotic_k import KClass


def gamma_graded_char(rs: RootSystem, lam: Weight, nu: Weight) -> LaurentPoly:
    """Graded good-filtration multiplicity of N(nu) in the global sections of
    O(lam): sum_k (Gamma_k : N(nu)) v^k = M_nu^lam(v^2)."""
    lam, nu = tuple(lam), tuple(nu)
    if not (rs.is_dominant(lam) and rs.is_dominant(nu)):
        raise ValueError("gamma_graded_char needs dominant weights")
    return charring.lusztig_q(rs, nu, lam).compose_power(2)


def _q_sum(rs: RootSystem, pairs, kappa: Weight, k: int) -> LaurentPoly:
    """sum count M_nu^kappa(v^k) over the (nu, count) pairs."""
    total = ZERO
    for nu, count in pairs:
        q = charring.lusztig_q(rs, nu, kappa)
        if q:
            total = total + q.compose_power(k) * count
    return total


def std_mult(rs: RootSystem, cm: CharacterMultiset, mu: Weight) -> LaurentPoly:
    """Graded multiplicity of Delta^mu in V (x) O, V given by Weyl-basis
    multiplicities."""
    if cm.basis_kind != WEYL_BASIS:
        raise ValueError("std_mult needs a Weyl-basis character multiset")
    mu = tuple(mu)
    return _q_sum(rs, cm.mults, rs.dom(mu), -2).shift(-rs.delta(mu))


def costd_mult(rs: RootSystem, cm: CharacterMultiset, mu: Weight) -> LaurentPoly:
    """Graded multiplicity of nabla^mu in V (x) O, V given by good-basis
    multiplicities."""
    if cm.basis_kind != GOOD_BASIS:
        raise ValueError("costd_mult needs a good-basis character multiset")
    mu = tuple(mu)
    # the formula sums (V : N(-w_0 nu)) M_nu^{dom(-mu)}; re-index nu -> -w_0 nu
    pairs = [(rs.minus_w0(nu), count) for nu, count in cm.mults]
    return _q_sum(rs, pairs, rs.dom(rs.neg(mu)), 2).shift(rs.delta(mu))


# ---------------------------------------------------------------------------
# Dominant tilting classes


def costandard_expansion(rs: RootSystem, cm: CharacterMultiset) -> KClass:
    """sum_mu costd_mult(V, mu) m_mu over the finite support, V read in the
    good basis whatever the basis of cm.

    costd_mult depends on mu only through dom(-mu) = -w_0 dom(mu) and the
    shift v^{delta(mu)}, so there is one q-analogue sum per dominant weight d
    below the support, spread over the W-orbit of d with delta read off the
    orbit walk."""
    pairs = [(rs.minus_w0(nu), count) for nu, count in cm.mults]
    doms = set()
    for nu, _ in cm.mults:
        doms.update(rs.dominant_below(nu))
    terms = {}
    for d in sorted(doms):
        p = _q_sum(rs, pairs, rs.minus_w0(d), 2)
        if p:
            for mu, k in rs.orbit_levels(d).items():
                terms[mu] = p.shift(k)
    return KClass(terms)


def dominant_tilting_class(rs: RootSystem, lam: Weight,
                           tilt_char: CharacterMultiset = None) -> KClass:
    """K-class of the dominant indecomposable tilting object T(lam) (x) O.

    tilt_char defaults to the characteristic-zero character {M(lam): 1}; a
    supplied character must be a Weyl-basis multiset with highest weight
    lam: M(lam) once, every other M(nu) with nu <= lam.
    """
    lam = tuple(lam)
    if not rs.is_dominant(lam):
        raise ValueError("dominant_tilting_class needs a dominant weight")
    if tilt_char is None:
        tilt_char = CharacterMultiset.of(rs, {lam: 1}, WEYL_BASIS)
    if tilt_char.basis_kind != WEYL_BASIS:
        raise ValueError("tilting characters are Weyl-basis multisets")
    mults = tilt_char.as_dict()
    if mults.get(lam) != 1 or not all(rs.dominance_leq(nu, lam) for nu in mults):
        raise ValueError("a tilting character of T(lam) must hold M(lam) "
                         "once and otherwise only M(nu) with nu <= lam")
    return costandard_expansion(rs, tilt_char)


# ---------------------------------------------------------------------------
# Reconciliation oracle


class ReconcileReport(NamedTuple):
    status: str                   # "match" | "mismatch"
    detail: list                  # one row per weight where they differ

    @property
    def matched(self) -> bool:
        return self.status == "match"


def reconcile(rs: RootSystem, cm: CharacterMultiset) -> ReconcileReport:
    """Compare the two computations of [V (x) O]: the line-bundle filtration
    (tensor_class) against the costandard-multiplicity expansion."""
    by_tensor = exotic_k.tensor_class(
        rs, charring.full_weights(rs, cm), exotic_k.m0(rs)
    )
    by_costd = costandard_expansion(rs, cm)
    if by_tensor == by_costd:
        return ReconcileReport("match", [])
    detail = []
    for mu in sorted(set(by_tensor.terms) | set(by_costd.terms)):
        a = by_tensor.coefficient(mu)
        b = by_costd.coefficient(mu)
        if a != b:
            detail.append(
                {"weight": list(mu), "tensor": a.pairs(), "costandard": b.pairs()}
            )
    return ReconcileReport("mismatch", detail)
