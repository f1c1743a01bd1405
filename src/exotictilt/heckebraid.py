"""The extended affine Hecke algebra H in the standard basis {T_w}.

Conventions (pinned by the test suite):
  * quadratic relation  (T_s - v^-1)(T_s + v) = 0, so
    T_s^2 = T_e + (v^-1 - v) T_s  and  T_s^-1 = T_s + (v - v^-1) T_e;
  * T_x T_omega = T_{x omega} and T_omega T_x = T_{omega x} for omega of
    length 0;
  * T_x T_s = T_{xs} if len(xs) > len(x), else T_{xs} + (v^-1 - v) T_x.

Bernstein elements: theta_lam = T_{t_mu} (T_{t_nu})^{-1} for any dominant
mu, nu with lam = mu - nu; the canonical choice takes nu_i = max(0, -lam_i)
componentwise.  Braid-group words are only ever certified through their
Hecke images.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .laurent import Combination, ONE, VINV_MINUS_V, V_MINUS_VINV, _accumulate
from .rootdata import RootSystem, Weight
from . import affweyl
from .affweyl import AffineElement, aff_length, aff_mul, simple_generators


HeckeElement = Combination   # linear combinations of basis elements T_x


def T(rs: RootSystem, x: AffineElement) -> HeckeElement:
    return HeckeElement.basis(x)


def unit(rs: RootSystem) -> HeckeElement:
    return HeckeElement.basis(affweyl.identity(rs))


# ---------------------------------------------------------------------------
# One-generator sweeps (the workhorses)


def mul_gen(rs, xi: HeckeElement, gid: int, side="right") -> HeckeElement:
    """xi * T_s (or T_s * xi for side='left') for a simple reflection s."""
    g = simple_generators(rs)[gid]
    out = {}
    for x, p in xi.terms.items():
        y = aff_mul(rs, x, g) if side == "right" else aff_mul(rs, g, x)
        _accumulate(out, y, p)
        if aff_length(rs, y) <= aff_length(rs, x):
            _accumulate(out, x, p * VINV_MINUS_V)
    return HeckeElement(out)


def mul_gen_inv(rs, xi: HeckeElement, gid: int, side="right") -> HeckeElement:
    """xi * T_s^{-1} = xi * T_s + (v - v^-1) xi (and the left analogue)."""
    return mul_gen(rs, xi, gid, side) + xi.scale(V_MINUS_VINV)


def mul_omega(rs, xi: HeckeElement, omega: AffineElement, side="right"):
    out = {}
    for x, p in xi.terms.items():
        y = aff_mul(rs, x, omega) if side == "right" else aff_mul(rs, omega, x)
        _accumulate(out, y, p)
    return HeckeElement(out)


def mul_basis(rs, xi: HeckeElement, x: AffineElement, side="right") -> HeckeElement:
    """xi * T_x (or T_x * xi), expanding x through a reduced word."""
    omega, word = affweyl.reduced_word(rs, x)
    if side == "right":
        if omega.t != rs.zero() or omega.w != rs.identity_matrix:
            xi = mul_omega(rs, xi, omega, "right")
        for gid in word:
            xi = mul_gen(rs, xi, gid, "right")
        return xi
    # left: T_x * xi = T_omega T_{s_1} ... T_{s_k} * xi, innermost first
    for gid in reversed(word):
        xi = mul_gen(rs, xi, gid, "left")
    if omega.t != rs.zero() or omega.w != rs.identity_matrix:
        xi = mul_omega(rs, xi, omega, "left")
    return xi


def mul_basis_inv(rs, xi: HeckeElement, x: AffineElement, side="right"):
    """xi * (T_x)^{-1} (or (T_x)^{-1} * xi)."""
    omega, word = affweyl.reduced_word(rs, x)
    oinv = affweyl.aff_inv(rs, omega)
    if side == "right":
        # (T_x)^{-1} = T_{s_k}^{-1} ... T_{s_1}^{-1} T_{omega^{-1}}
        for gid in reversed(word):
            xi = mul_gen_inv(rs, xi, gid, "right")
        return mul_omega(rs, xi, oinv, "right")
    xi = mul_omega(rs, xi, oinv, "left")
    for gid in word:
        xi = mul_gen_inv(rs, xi, gid, "left")
    return xi


# ---------------------------------------------------------------------------
# Products, inverses of generators


def hecke_mul(rs, xi: HeckeElement, eta: HeckeElement) -> HeckeElement:
    """Product in H."""
    out = HeckeElement.zero()
    for y, p in eta.terms.items():
        out = out + mul_basis(rs, xi, y, "right").scale(p)
    return out


def hecke_inv_generator(rs, g: AffineElement) -> HeckeElement:
    """Inverse of T_g for g a simple reflection or a length-0 element."""
    ll = aff_length(rs, g)
    if ll == 0:
        return HeckeElement.basis(affweyl.aff_inv(rs, g))
    if ll == 1:
        return HeckeElement({g: ONE, affweyl.identity(rs): V_MINUS_VINV})
    raise ValueError("generator inverse requires length 0 or 1")


# ---------------------------------------------------------------------------
# Braid words


@dataclass(frozen=True)
class BraidWord:
    """Formal word in generators T_s, T_omega and their inverses.

    Letters are ("s", gid, exp) or ("omega", element, exp) with exp = +-1;
    adjacent g g^{-1} pairs are cancelled eagerly.
    """

    letters: tuple = field(default=())

    def __post_init__(self):
        stack = []
        for letter in self.letters:
            if stack and stack[-1][:2] == letter[:2] \
                    and stack[-1][2] == -letter[2]:
                stack.pop()
            else:
                stack.append(letter)
        object.__setattr__(self, "letters", tuple(stack))

    @classmethod
    def of_simples(cls, gids, exp=1):
        return cls(tuple(("s", g, exp) for g in gids))

    def __mul__(self, other):
        return BraidWord(self.letters + other.letters)

    def inverse(self):
        return BraidWord(
            tuple((k, g, -e) for k, g, e in reversed(self.letters))
        )


def evaluate_word(rs, word: BraidWord) -> HeckeElement:
    """Image of a braid word in H (left-to-right product)."""
    xi = unit(rs)
    for kind, payload, exp in word.letters:
        if kind == "s":
            xi = (mul_gen if exp == 1 else mul_gen_inv)(rs, xi, payload, "right")
        else:
            om = payload if exp == 1 else affweyl.aff_inv(rs, payload)
            xi = mul_omega(rs, xi, om, "right")
    return xi


# ---------------------------------------------------------------------------
# Bernstein elements


def theta_decomposition(rs, lam: Weight):
    """Canonical dominant pair (mu, nu) with lam = mu - nu."""
    nu = tuple(max(0, -a) for a in lam)
    mu = rs.add(lam, nu)
    return mu, nu


def theta(rs, lam: Weight) -> HeckeElement:
    """Bernstein element theta_lam = T_{t_mu} (T_{t_nu})^{-1}."""
    memo = rs.memo("theta")
    res = memo.get(lam)
    if res is None:
        mu, nu = theta_decomposition(rs, lam)
        xi = HeckeElement.basis(affweyl.t_lambda(rs, mu))
        res = mul_basis_inv(rs, xi, affweyl.t_lambda(rs, nu), "right")
        memo[lam] = res
    return res


def mul_theta(rs, xi: HeckeElement, lam: Weight) -> HeckeElement:
    """xi * theta_lam via generator sweeps (no large termwise products)."""
    mu, nu = theta_decomposition(rs, lam)
    xi = mul_basis(rs, xi, affweyl.t_lambda(rs, mu), "right")
    return mul_basis_inv(rs, xi, affweyl.t_lambda(rs, nu), "right")


# ---------------------------------------------------------------------------
# Identity verification


@dataclass
class Report:
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
