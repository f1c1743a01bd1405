"""Characters of G-modules: Kostant partitions, Lusztig q-analogues,
Freudenthal multiplicities and tensor-product decomposition.

Everything here is characteristic-zero character combinatorics: Weyl and
induced modules share characters, so a CharacterMultiset in the "Weyl" basis
carries the same numerical data as one in the "good" basis.  Positive-
characteristic tilting characters enter only as user-supplied multisets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .laurent import LaurentPoly, ONE, ZERO
from .rootdata import RootSystem, Weight

WEYL_BASIS = "Weyl"
GOOD_BASIS = "good"


@dataclass(frozen=True)
class CharacterMultiset:
    """Multiplicities of a G-module in the Weyl (M) or good (N) filtration
    basis: a finite map dominant weight -> positive integer."""

    mults: tuple          # sorted tuple of (weight, count)
    basis_kind: str

    @classmethod
    def of(cls, rs: RootSystem, mults: dict, basis_kind: str) -> "CharacterMultiset":
        if basis_kind not in (WEYL_BASIS, GOOD_BASIS):
            raise ValueError(f"unknown basis kind {basis_kind!r}")
        clean = {}
        for lam, count in mults.items():
            lam = tuple(lam)
            if count < 0 or not rs.is_dominant(lam):
                raise ValueError("character multisets need dominant keys and "
                                 "nonnegative counts")
            if count:
                clean[lam] = clean.get(lam, 0) + count
        return cls(tuple(sorted(clean.items())), basis_kind)

    def as_dict(self) -> dict:
        return dict(self.mults)

    def relabel(self, basis_kind: str) -> "CharacterMultiset":
        """Reinterpret in the other filtration basis (valid character-wise in
        characteristic zero)."""
        return CharacterMultiset(self.mults, basis_kind)


# ---------------------------------------------------------------------------
# Kostant partition function


def kostant_partition(rs: RootSystem, mu: Weight) -> LaurentPoly:
    """P_mu(v): graded count of multisets of positive roots summing to mu,
    v tracking the multiset size."""
    memo = rs.memo("kostant")
    mu = tuple(mu)
    res = memo.get(mu)
    if res is not None:
        return res
    c = rs.root_coords_int(mu)
    if c is None or any(x < 0 for x in c):
        res = ZERO
    else:
        res = _kp(rs, len(rs.positive_roots) - 1, c, rs.memo("kostant_dp"))
    memo[mu] = res
    return res


def _kp(rs, i, coords, dp):
    if all(x == 0 for x in coords):
        return ONE
    if i < 0:
        return ZERO
    key = (i, coords)
    res = dp.get(key)
    if res is not None:
        return res
    root = rs.positive_roots[i].root_coords
    total = ZERO
    cur = coords
    k = 0
    while all(x >= 0 for x in cur):
        part = _kp(rs, i - 1, cur, dp)
        if part:
            total = total + part * LaurentPoly.v(k)
        cur = tuple(a - b for a, b in zip(cur, root))
        k += 1
    dp[key] = total
    return total


# ---------------------------------------------------------------------------
# Lusztig q-analogue


def lusztig_q(rs: RootSystem, lam: Weight, mu: Weight) -> LaurentPoly:
    """M_lam^mu(v) = sum_{w in W} (-1)^{len(w)} P_{w(lam+rho) - (mu+rho)}(v),
    summed by a pruned walk down the W-orbit of lam+rho instead of over W.

    The walk starts at the dominant weight d = u(lam+rho) of the orbit, u
    minimal; reindexing the sum by w u^{-1} multiplies it by (-1)^{len(u)}.
    If d is singular (some d[i] = 0), s_i fixes it and the terms cancel in
    pairs, so the sum is 0.  Otherwise, from a weight x of the orbit the walk
    steps to s_i(x) = x - x[i] alpha_i only where x[i] > 0; each such step
    lengthens the Weyl element by one, so the walk goes by levels and a
    weight first seen at level l has length l and sign (-1)^l.  Every step
    lowers x in the dominance order, and every orbit weight is reached along
    a reduced word, so the weights x >= mu+rho (the only ones with
    P_{x-(mu+rho)} != 0) form an upward closed set: a weight not >= mu+rho is
    pruned with all that lies below it.  The simple-root coordinates of
    x - (mu+rho) are carried along; a step at i subtracts x[i] from
    coordinate i.
    """
    target = rs.add(mu, rs.rho)
    start, _, steps = rs.dominant_rep(rs.add(lam, rs.rho))
    if 0 in start:
        return ZERO
    coords = rs.root_coords_int(rs.sub(start, target))
    if coords is None or any(c < 0 for c in coords):
        return ZERO
    total = ZERO
    level = [(start, coords)]
    seen = {start}
    sign = -1 if steps % 2 else 1
    while level:
        nxt = []
        for x, c in level:
            p = kostant_partition(rs, rs.sub(x, target))
            total = total + (p if sign > 0 else -p)
            for i, a in enumerate(x):
                if a <= 0 or c[i] < a:
                    continue
                y = tuple(b - a * r for b, r in zip(x, rs.simple_roots[i]))
                if y not in seen:
                    seen.add(y)
                    nxt.append((y, c[:i] + (c[i] - a,) + c[i + 1:]))
        level = nxt
        sign = -sign
    return total


def lusztig_q_wsum(rs: RootSystem, lam: Weight, mu: Weight) -> LaurentPoly:
    """Oracle for lusztig_q: the alternating sum over all of W, enumerated.
    Meant for tests in low rank."""
    rho = rs.rho
    shifted = rs.add(lam, rho)
    target = rs.add(mu, rho)
    total = ZERO
    for w in rs.weyl_group():
        arg = rs.sub(rs.apply(w.matrix, shifted), target)
        p = kostant_partition(rs, arg)
        if p:
            total = total + (p if w.length % 2 == 0 else -p)
    return total


# ---------------------------------------------------------------------------
# Freudenthal weight multiplicities (independent v=1 oracle)


def _dominant_mult_table(rs: RootSystem, lam: Weight) -> dict:
    """dominant weight -> dim M(lam)_weight, by the Freudenthal recursion."""
    memo = rs.memo("freudenthal")
    lam = tuple(lam)
    table = memo.get(lam)
    if table is not None:
        return table
    if not rs.is_dominant(lam):
        raise ValueError("Freudenthal table needs a dominant highest weight")
    doms = rs.dominant_below(lam)
    doms.sort(key=lambda mu: rs.height(rs.sub(lam, mu)))
    rho = rs.rho
    lam_norm = rs.inner(rs.add(lam, rho), rs.add(lam, rho))
    lam_sq = rs.inner(lam, lam)
    table = {}
    for mu in doms:
        if mu == lam:
            table[mu] = 1
            continue
        num = Fraction(0)
        for root in rs.positive_roots:
            k = 1
            while True:
                up = rs.add(mu, tuple(k * a for a in root.coords))
                if rs.inner(up, up) > lam_sq:
                    break
                m = table.get(rs.dom(up), 0)
                if m:
                    num += 2 * m * rs.inner(up, root.coords)
                k += 1
        denom = lam_norm - rs.inner(rs.add(mu, rho), rs.add(mu, rho))
        val = num / denom
        if val.denominator != 1 or val < 0:
            raise AssertionError(
                f"Freudenthal multiplicity {val} at {mu} in M({lam}) is not "
                "a nonnegative integer"
            )
        if val:
            table[mu] = int(val)
    memo[lam] = table
    return table


def freudenthal_mult(rs: RootSystem, lam: Weight, mu: Weight) -> int:
    """dim M(lam)_mu for dominant lam (0 outside the weight set)."""
    return _dominant_mult_table(rs, lam).get(rs.dom(tuple(mu)), 0)


def module_weights(rs: RootSystem, lam: Weight) -> dict:
    """Full weight table weight -> multiplicity of the Weyl module M(lam)."""
    memo = rs.memo("module_weights")
    lam = tuple(lam)
    res = memo.get(lam)
    if res is None:
        res = {}
        for mu, m in _dominant_mult_table(rs, lam).items():
            for w in rs.weyl_orbit(mu):
                res[w] = m
        memo[lam] = res
    return res


def weyl_dim(rs: RootSystem, lam: Weight) -> int:
    return sum(module_weights(rs, lam).values())


# ---------------------------------------------------------------------------
# Tensor decomposition (signed reflection rule)


def tensor_decompose(rs: RootSystem, lam: Weight, mu: Weight) -> CharacterMultiset:
    """Multiplicities of chi(nu) in chi(lam) * chi(mu), by the signed
    reflection rule applied over the weights of M(mu); terms whose shifted
    weight lam + rho + xi lies on a wall are dropped."""
    lam, mu = tuple(lam), tuple(mu)
    if not (rs.is_dominant(lam) and rs.is_dominant(mu)):
        raise ValueError("tensor_decompose needs dominant weights")
    rho = rs.rho
    out = {}
    for xi, mult in module_weights(rs, mu).items():
        shifted = rs.add(rs.add(lam, rho), xi)
        dom, v, _ = rs.dominant_rep(shifted)
        if any(a == 0 for a in dom):
            continue
        nu = rs.sub(dom, rho)
        sign = -1 if v.length % 2 else 1
        out[nu] = out.get(nu, 0) + sign * mult
    out = {nu: c for nu, c in out.items() if c}
    if any(c < 0 for c in out.values()):
        raise AssertionError(
            f"negative multiplicity in the decomposition of {lam} x {mu}"
        )
    return CharacterMultiset.of(rs, out, WEYL_BASIS)


def full_weights(rs: RootSystem, cm: CharacterMultiset) -> dict:
    """Total weight multiplicities of the module described by cm."""
    out = {}
    for nu, count in cm.mults:
        for w, m in module_weights(rs, nu).items():
            s = out.get(w, 0) + count * m
            out[w] = s
    return {w: m for w, m in out.items() if m}
