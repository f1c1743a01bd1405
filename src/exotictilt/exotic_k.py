"""Hecke-module model of the equivariant K-group of the Springer resolution.

The K-group is a free Z[v,v^-1]-module with costandard basis {m_lam} indexed
by weights; m_0 is the class of the structure sheaf and the grading shift <1>
acts as multiplication by v.  H acts on the right; on basis vectors, with
u = w_lam * s and mu the translation index of u:

    m_lam . T_s    = v^-1 m_lam                    if mu == lam
                   = m_mu                          if len(u) = len(w_lam) + 1
                   = m_mu + (v^-1 - v) m_lam       otherwise
    m_lam . T_s^-1 = v m_lam                       if mu == lam
                   = m_mu + (v - v^-1) m_lam       if len(u) = len(w_lam) + 1
                   = m_mu                          otherwise
    m_lam . T_omega = m_mu   (mu the translation index of w_lam * omega)

The T_s^-1 rows are the T_s rows plus (v - v^-1) m_lam, from
T_s^-1 = T_s + (v - v^-1).  The first case happens exactly when u is not
minimal in its coset; the ``anchors`` suite of ``verify`` checks this case
split against w_lambda.
Derived classes: nabla: m_lam itself; delta: m_0 acted by the inverse of
T_{w_lam^{-1}}; line bundles: m_0 . theta_lam; Bott-Samelson tilting classes:
m_0 . T_omega (T_{s_r}+v) ... (T_{s_1}+v), the innermost factor acting first.
"""

from __future__ import annotations

from .laurent import (Combination, LaurentPoly, ONE, V, VINV, VINV_MINUS_V,
                      V_MINUS_VINV, _accumulate)
from .rootdata import RootSystem, Weight, memoized
from . import affweyl
from .heckebraid import BraidWord, act, theta_letters, word_letters
from .affweyl import AffineElement, aff_length, aff_mul, gen_step


KClass = Combination   # linear combinations of basis classes m_lam


def m0(rs: RootSystem) -> KClass:
    return KClass.basis(rs.zero())


# ---------------------------------------------------------------------------
# Basis action


@memoized("k_gen_action")
def _basis_gen_action(rs, lam: Weight, gid: int, exp: int):
    """m_lam . T_gid^exp (exp = +-1) as a tuple of (weight, poly)."""
    u, down = gen_step(rs, affweyl.w_lambda(rs, lam)[0], gid)
    mu = u.t
    if mu == lam:
        # u = (finite simple) * w_lam is not minimal in W t_lam
        return ((lam, VINV if exp == 1 else V),)
    if down and exp == 1:
        return ((mu, ONE), (lam, VINV_MINUS_V))
    if not down and exp == -1:
        return ((mu, ONE), (lam, V_MINUS_VINV))
    return ((mu, ONE),)


def _basis_omega_action(rs, lam: Weight, omega: AffineElement) -> Weight:
    """The weight mu with m_lam . T_omega = m_mu."""
    return aff_mul(rs, affweyl.w_lambda(rs, lam)[0], omega).t


def _act(rs, c: KClass, letters) -> KClass:
    return act(rs, c, letters, _basis_gen_action, _basis_omega_action)


def act_simple(rs, c: KClass, gid: int) -> KClass:
    """c . T_s, extended linearly from the basis action."""
    return _act(rs, c, (("s", gid, 1),))


def act_hecke(rs, c: KClass, xi) -> KClass:
    """Right action of a HeckeElement or BraidWord."""
    if isinstance(xi, BraidWord):
        return _act(rs, c, xi.letters)
    out = KClass()
    for x, p in xi.terms.items():
        out = out + _act(rs, c, word_letters(rs, x)).scale(p)
    return out


# ---------------------------------------------------------------------------
# Named classes


def nabla_class(rs, lam: Weight) -> KClass:
    """[nabla^lam] = m_lam (the basis class by definition)."""
    return KClass.basis(tuple(lam))


@memoized("delta_class")
def delta_class(rs, lam: Weight) -> KClass:
    """[Delta^lam] = m_0 . (T_{w_lam^{-1}})^{-1}."""
    w, _ = affweyl.w_lambda(rs, lam)
    letters = word_letters(rs, affweyl.aff_inv(rs, w), inverse=True)
    return _act(rs, m0(rs), letters)


@memoized("line_bundle")
def line_bundle_class(rs, lam: Weight) -> KClass:
    """[O(lam)] = m_0 . theta_lam."""
    return _act(rs, m0(rs), theta_letters(rs, lam))


def bott_samelson_class(rs, omega: AffineElement, seq) -> KClass:
    """K-class of the Bott-Samelson object Xi_{s_1} ... Xi_{s_r} I_{T_omega}(O)
    for seq = (s_1, ..., s_r): the innermost factor acts first, so

        m_0 . T_omega (T_{s_r} + v)(T_{s_{r-1}} + v) ... (T_{s_1} + v).
    """
    if aff_length(rs, omega) != 0:
        raise ValueError("omega must have length 0")
    c = _act(rs, m0(rs), (("omega", omega, 1),))
    for gid in reversed(list(seq)):
        c = act_simple(rs, c, gid) + c.scale(LaurentPoly.v(1))
    return c


def tensor_class(rs, weights: dict, c: KClass) -> KClass:
    """c acted by sum_mu dim(V_mu) theta_mu for a G-module weight table."""
    out = {}
    for mu, mult in weights.items():
        if mult < 0:
            raise ValueError("weight multiplicities must be nonnegative")
        if mult:
            for k, p in _act(rs, c, theta_letters(rs, mu)).terms.items():
                _accumulate(out, k, p if mult == 1 else p * mult)
    return KClass(out)
