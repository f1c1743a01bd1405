"""The extended affine Hecke algebra H in the standard basis {T_w}.

Conventions (pinned by the test suite):
  * quadratic relation  (T_s - v^-1)(T_s + v) = 0, so
    T_s^2 = T_e + (v^-1 - v) T_s  and  T_s^-1 = T_s + (v - v^-1) T_e;
  * T_x T_omega = T_{x omega} and T_omega T_x = T_{omega x} for omega of
    length 0;
  * T_x T_s = T_{xs} if len(xs) > len(x), else T_{xs} + (v^-1 - v) T_x.

Bernstein elements: theta_lam = T_{t_mu} (T_{t_nu})^{-1} for any dominant
mu, nu with lam = mu - nu; the canonical choice takes nu_i = max(0, -lam_i)
componentwise.

A braid word is its tuple of letters ("s", gid, exp) or ("omega", element,
exp), exp = +-1, and is only ever certified through its Hecke image.  Every
product by a word runs through one sweep, ``act``, which applies the letters
in order to a combination in a module given by its action on one basis key:
H on the right, or the K-module of exotic_k, its quotient.
A left product is the mirror of a right one under the anti-involution
iota(T_x) = T_{x^-1}: T xi = iota(iota(xi) iota(T)).
"""

from __future__ import annotations

from .laurent import Combination, ONE, VINV_MINUS_V, V_MINUS_VINV, _accumulate
from .rootdata import RootSystem, Weight, memoized
from . import affweyl
from .affweyl import AffineElement, aff_mul, gen_step


HeckeElement = Combination   # linear combinations of basis elements T_x


def T(rs: RootSystem, x: AffineElement) -> HeckeElement:
    return HeckeElement.basis(x)


def unit(rs: RootSystem) -> HeckeElement:
    return HeckeElement.basis(affweyl.identity(rs))


# ---------------------------------------------------------------------------
# Braid words and the one sweep


def word_letters(rs, x: AffineElement, inverse=False) -> tuple:
    """Letters of T_x = T_omega T_{s_1} ... T_{s_k} from the reduced word of
    x, or of (T_x)^{-1} = T_{s_k}^{-1} ... T_{s_1}^{-1} T_omega^{-1}."""
    omega, word = affweyl.reduced_word(rs, x)
    letters = [("s", gid, 1) for gid in word]
    if omega != affweyl.identity(rs):
        letters.insert(0, ("omega", omega, 1))
    if inverse:
        return tuple((k, g, -e) for k, g, e in reversed(letters))
    return tuple(letters)


def act(rs, c: Combination, letters, step, move) -> Combination:
    """c acted on by the letters in order, in the module that step and move
    describe: step(rs, key, gid, exp) is key . T_s^exp as a tuple of
    (key, poly), and move(rs, key, omega) is the key of key . T_omega.  The
    step gets the sign of the letter, so T_s^{-1} = T_s + (v - v^-1) is
    applied in closed form and no term is built that cancels.  In the
    right regular module, with a descent when len(xs) < len(x):

        letter    descent                    no descent
        T_s       T_{xs} + (v^-1 - v) T_x    T_{xs}
        T_s^-1    T_{xs}                     T_{xs} + (v - v^-1) T_x

    A letter T_omega^{-1} acts as T_{omega^{-1}}."""
    terms = c.terms
    for kind, payload, exp in letters:
        gen = kind == "s"
        if not gen and exp == -1:
            payload = affweyl.aff_inv(rs, payload)
        out = {}
        for key, p in terms.items():
            if gen:
                # _accumulate inlined: this loop is every sweep's inner loop
                for k, q in step(rs, key, payload, exp):
                    q = p if q is ONE else p * q
                    s = out.get(k)
                    if s is None:
                        out[k] = q
                    elif s := s + q:
                        out[k] = s
                    else:
                        del out[k]
            else:
                _accumulate(out, move(rs, key, payload), p)
        terms = out
    return Combination(terms)


def _step(rs, x, gid, exp):
    """T_x T_s^exp, exp = +-1, by the table in act."""
    y, down = gen_step(rs, x, gid)
    if down and exp == 1:
        return ((y, ONE), (x, VINV_MINUS_V))
    if not down and exp == -1:
        return ((y, ONE), (x, V_MINUS_VINV))
    return ((y, ONE),)


def _move(rs, x, omega):
    """The key of T_x T_omega."""
    return aff_mul(rs, x, omega)


def act_element(rs, c: Combination, eta: HeckeElement, step, move):
    """c * eta = sum_y p_y (c * T_y) for eta = sum_y p_y T_y, in the module
    that step and move describe, summed into one table."""
    out = {}
    for y, p in eta.terms.items():
        for k, q in act(rs, c, word_letters(rs, y), step, move).terms.items():
            _accumulate(out, k, q if p is ONE else q * p)
    return Combination(out)


def _mirror(rs, xi: HeckeElement) -> HeckeElement:
    """iota(xi) for the anti-involution iota(sum p_x T_x) = sum p_x T_{x^-1}."""
    return HeckeElement({affweyl.aff_inv(rs, x): p for x, p in xi.terms.items()})


def _regular(rs, xi, letters, side):
    """xi * T (or T * xi) for the word T of letters.  iota(T) is the word
    read backwards, each T_s^e kept and each T_omega^e made T_omega^-e, since
    iota(T_omega) = T_{omega^-1}."""
    if side == "right":
        return act(rs, xi, letters, _step, _move)
    if side != "left":
        raise ValueError(f"side must be 'right' or 'left', not {side!r}")
    letters = tuple((k, g, -e if k == "omega" else e)
                    for k, g, e in reversed(letters))
    return _mirror(rs, act(rs, _mirror(rs, xi), letters, _step, _move))


def mul_gen(rs, xi: HeckeElement, gid: int, side="right") -> HeckeElement:
    """xi * T_s (or T_s * xi for side='left') for a simple reflection s."""
    return _regular(rs, xi, (("s", gid, 1),), side)


def mul_basis(rs, xi: HeckeElement, x: AffineElement, side="right") -> HeckeElement:
    """xi * T_x (or T_x * xi), expanding x through a reduced word."""
    return _regular(rs, xi, word_letters(rs, x), side)


def mul_basis_inv(rs, xi: HeckeElement, x: AffineElement, side="right"):
    """xi * (T_x)^{-1} (or (T_x)^{-1} * xi)."""
    return _regular(rs, xi, word_letters(rs, x, inverse=True), side)


def hecke_mul(rs, xi: HeckeElement, eta: HeckeElement) -> HeckeElement:
    """Product in H."""
    return act_element(rs, xi, eta, _step, _move)


def evaluate_word(rs, letters) -> HeckeElement:
    """Image in H of the braid word of the letters (left-to-right product)."""
    return act(rs, unit(rs), letters, _step, _move)


# ---------------------------------------------------------------------------
# Bernstein elements


def theta_decomposition(rs, lam: Weight):
    """Canonical dominant pair (mu, nu) with lam = mu - nu."""
    nu = tuple(max(0, -a) for a in lam)
    mu = rs.add(lam, nu)
    return mu, nu


@memoized("theta")
def theta(rs, lam: Weight) -> HeckeElement:
    """Bernstein element theta_lam = T_{t_mu} (T_{t_nu})^{-1}."""
    mu, nu = theta_decomposition(rs, lam)
    xi = T(rs, affweyl.t_lambda(rs, mu))
    return mul_basis_inv(rs, xi, affweyl.t_lambda(rs, nu))


def mul_theta(rs, xi: HeckeElement, lam: Weight) -> HeckeElement:
    """xi * theta_lam via generator sweeps (no large termwise products)."""
    return _regular(rs, xi, theta_letters(rs, lam), "right")


def theta_letters(rs, lam: Weight) -> tuple:
    """Letters of theta_lam = T_{t_mu} (T_{t_nu})^{-1}."""
    mu, nu = theta_decomposition(rs, lam)
    return (word_letters(rs, affweyl.t_lambda(rs, mu))
            + word_letters(rs, affweyl.t_lambda(rs, nu), inverse=True))
