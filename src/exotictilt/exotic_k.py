"""Hecke-module model of the equivariant K-group of the Springer resolution.

The K-group is a free Z[v,v^-1]-module with costandard basis {m_lam} indexed
by weights; m_0 is the class of the structure sheaf and the grading shift <1>
acts as multiplication by v.  H acts on the right, and the module is the
antispherical quotient of the right regular module (Arkhipov-Bezrukavnikov,
Israel J. Math. 170, 2009): m_lam is the image of T_{w_lam}, and for every
x in W_aff

    T_x  |->  v^(len(w_mu) - len(x)) m_mu,   mu the translation part of x.

So m_lam . T_s^exp is the regular step T_{w_lam} T_s^exp read in the
quotient.  For s = s_beta t_{n beta}, x = w t_lam steps to x s with
translation lam + c beta, c = n - <lam, beta_vee>, and s descends x when
c < 0: off the wall c = 0 neither depends on w, so the step reads t_lam,
not w_lam.  On the wall, w_lam s = s' w_lam for a finite simple s' is not
minimal in its coset; then m_lam . T_s = v^-1 m_lam and m_lam . T_s^-1 =
v m_lam.  T_omega moves m_lam to m_mu, mu the translation of t_lam omega.
The ``anchors`` suite of ``verify`` checks this case split against
w_lambda, and the ``module`` suite checks the rule.

Derived classes: nabla: m_lam; delta: Delta^mu . T_s^-1 for lam descending
at s to mu, m_lam on the Omega-orbit of 0; line bundles: m_0 . theta_lam;
Bott-Samelson: m_0 . T_omega (T_{s_r}+v) ... (T_{s_1}+v), innermost first.

Line bundles by reflection.  For a finite simple reflection s = s_alpha,
Lusztig's Bernstein relation (J. AMS 2, 1989, Prop. 3.6) reads

    theta_mu T_s - T_s theta_{s mu}
        = (v^-1 - v) (theta_mu - theta_{s mu}) / (1 - theta_{-alpha}),

and for k = <mu, alpha_vee> > 0 the quotient is the sum of the
theta_{mu - j alpha}, 0 <= j < k.  Left-multiplied by m_0, with m_0 . T_s =
v^-1 m_0 and [O(mu)] = m_0 . theta_mu, it gives

    [O(s mu)] = v ([O(mu)] . T_s - (v^-1 - v) sum_{0 <= j < k} [O(mu - j alpha)]),

and T_s = T_s^-1 + (v^-1 - v) cancels the j = 0 term:

    [O(s mu)] = v ([O(mu)] . T_s^-1 + (v - v^-1) sum_{0 < j < k} [O(mu - j alpha)]).

From [O(lam)] = m_lam for dominant lam, tensor_class builds each line
bundle with one such step from classes already in its table; a weight whose
inputs are not all there is swept through the letters of theta_lam instead,
as line_bundle_class does for a single weight.
"""

from __future__ import annotations

from .laurent import (Combination, LaurentPoly, V, VINV, V_MINUS_VINV,
                      _accumulate)
from .rootdata import RootSystem, Weight, memoized
from .heckebraid import _step, act, act_element, theta_letters
from .affweyl import (AffineElement, aff_length, aff_mul, gen_roots,
                      t_lambda, walk_down)


KClass = Combination   # linear combinations of basis classes m_lam


def m0(rs: RootSystem) -> KClass:
    return KClass.basis(rs.zero())


# ---------------------------------------------------------------------------
# Basis action


@memoized("k_gen_action")
def _basis_gen_action(rs, lam: Weight, gid: int, exp: int):
    """m_lam . T_gid^exp (exp = +-1) as a tuple of (weight, poly)."""
    terms = _step(rs, t_lambda(rs, lam), gid, exp)
    if terms[0][0].t == lam:
        # on the wall c = 0: w_lam s = s' w_lam is not minimal in W t_lam
        return ((lam, VINV if exp == 1 else V),)
    return tuple([(x.t, p) for x, p in terms])


def _basis_omega_action(rs, lam: Weight, omega: AffineElement) -> Weight:
    """The weight mu with m_lam . T_omega = m_mu."""
    return aff_mul(rs, t_lambda(rs, lam), omega).t


def _act(rs, c: KClass, letters) -> KClass:
    return act(rs, c, letters, _basis_gen_action, _basis_omega_action)


def act_simple(rs, c: KClass, gid: int) -> KClass:
    """c . T_s, extended linearly from the basis action."""
    return _act(rs, c, (("s", gid, 1),))


def act_hecke(rs, c: KClass, xi) -> KClass:
    """Right action c . xi of a HeckeElement xi, each T_y through the letters
    of its reduced word; a braid word's letters act through _act."""
    return act_element(rs, c, xi, _basis_gen_action, _basis_omega_action)


# ---------------------------------------------------------------------------
# Named classes


def nabla_class(rs, lam: Weight) -> KClass:
    """[nabla^lam] = m_lam (the basis class by definition)."""
    return KClass.basis(tuple(lam))


def _descent(rs, lam: Weight):
    """(gid, mu) for the first s in generator order (that of gen_roots) with
    m_lam . T_s = m_mu + (v^-1 - v) m_lam, so m_mu . T_s = m_lam; None on the
    Omega-orbit of 0."""
    for gid in gen_roots(rs):
        terms = _basis_gen_action(rs, lam, gid, 1)
        if len(terms) == 2:
            return gid, terms[0][0]


@memoized("delta_class")
def delta_class(rs, lam: Weight) -> KClass:
    """[Delta^lam] = m_0 . (T_{w_lam^{-1}})^{-1}, walked down the descents:
    Delta^lam = Delta^mu . T_s^-1 (w_lam = w_mu s); only lam is stored."""
    memo = rs.memo("delta_class")
    mu, gids = walk_down(rs, lam, memo, _descent)
    base = memo[mu] if mu in memo else KClass.basis(mu)
    return _act(rs, base, [("s", gid, -1) for gid in reversed(gids)])


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


def _reflection_inputs(rs, lam: Weight):
    """(i, [mu, mu - alpha_i, ..., mu - (k-1) alpha_i]) for a non-dominant
    lam, with i the first index where lam_i < 0, k = -lam_i and mu = s_i lam
    = lam + k alpha_i, so <mu, alpha_i^vee> = k; (None, []) for a dominant
    lam."""
    i = next((j for j, a in enumerate(lam) if a < 0), None)
    if i is None:
        return None, []
    alpha, k = rs.simple_roots[i], -lam[i]
    mu = tuple([a + k * r for a, r in zip(lam, alpha)])
    return i, [tuple([a - j * r for a, r in zip(mu, alpha)]) for j in range(k)]


def _line_bundles(rs, weights) -> dict:
    """Fill the table rs.memo("line_bundle") of [O(lam)] for the weights and
    return it.

    A dominant lam gives m_lam.  Otherwise, with i and the inputs mu = s_i
    lam, mu - j alpha_i (0 < j < k) of _reflection_inputs, [O(lam)] is the
    reflection step of the module docstring when every input is in the
    table, and the theta sweep of line_bundle_class when one is not.  The
    weights are taken by increasing ((lam, lam), delta(lam)): mu has the
    norm of lam and one inversion less, and each mu - j alpha_i is shorter,
    so in a W-saturated table (the weights of a G-module) every input comes
    first and no sweep is made."""
    table = rs.memo("line_bundle")
    todo = sorted({lam for lam in weights if lam not in table},
                  key=lambda lam: (rs.det_inner(lam, lam), rs.delta(lam)))
    for lam in todo:
        i, inputs = _reflection_inputs(rs, lam)
        if i is None:
            table[lam] = KClass.basis(lam)
            continue
        classes = [table.get(nu) for nu in inputs]
        if None in classes:
            table[lam] = line_bundle_class(rs, lam)
            continue
        out = dict(_act(rs, classes[0], (("s", i + 1, -1),)).terms)
        for c in classes[1:]:
            for key, p in c.terms.items():
                _accumulate(out, key, p * V_MINUS_VINV)
        table[lam] = KClass({key: p.shift(1) for key, p in out.items()})
    return table


def tensor_class(rs, weights: dict, c: KClass) -> KClass:
    """m_0 acted by sum_mu dim(V_mu) theta_mu for a G-module weight table:
    each image m_0 . theta_mu = [O(mu)] is read off the line-bundle table of
    _line_bundles.  c must be m_0, since the reflection step rests on
    m_0 . T_s lying in Z[v,v^-1] m_0."""
    if c != m0(rs):
        raise ValueError("tensor_class starts from m_0 only")
    if any(mult < 0 for mult in weights.values()):
        raise ValueError("weight multiplicities must be nonnegative")
    weights = {mu: mult for mu, mult in weights.items() if mult}
    table = _line_bundles(rs, weights)
    out = {}
    for mu, mult in weights.items():
        for k, p in table[mu].terms.items():
            _accumulate(out, k, p if mult == 1 else p * mult)
    return KClass(out)
