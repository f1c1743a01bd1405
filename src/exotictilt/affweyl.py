"""Extended affine Weyl group W_aff = W ⋉ X.

An element w.t_lam is stored as ``AffineElement(w_matrix, lam)``.  The
multiplication rule is (w t_lam)(w' t_mu) = (w w') t_{w'^{-1}(lam) + mu}.

The Iwahori-Matsumoto length

    len(w t_lam) = sum_{a in Phi+ , w(a) > 0} |<lam, a_vee>|
                 + sum_{a in Phi+ , w(a) < 0} |1 + <lam, a_vee>|

extends the Coxeter length of W_aff^Cox = W ⋉ Z.Phi to the whole group; the
length-zero elements form the finite abelian subgroup Omega ~ X / Z.Phi.

Simple reflection ids: positive ints 1..rank are the finite generators
(s_{alpha_i} with 1-based i); id -c (c >= 0) is the affine generator of the
c-th irreducible component, found by brute-force search for the unique
length-1 element of the form s_gamma t_{-gamma} with gamma a positive root
of the component.  So "s0" is the affine generator of the first component.
"""

from __future__ import annotations

from operator import mul
from typing import NamedTuple

from .rootdata import RootSystem, RootSystemError, Weight


class AffineElement(NamedTuple):
    w: tuple      # finite part, integer matrix on fundamental coordinates
    t: Weight     # translation part

    def __repr__(self):
        return f"Aff(t={self.t})"


def identity(rs: RootSystem) -> AffineElement:
    return AffineElement(rs.identity_matrix, rs.zero())


def t_lambda(rs: RootSystem, lam: Weight) -> AffineElement:
    return AffineElement(rs.identity_matrix, tuple(lam))


def aff_mul(rs: RootSystem, x: AffineElement, y: AffineElement) -> AffineElement:
    t = x.t
    return AffineElement(
        rs.mat_mul(x.w, y.w),
        tuple([sum(map(mul, row, t)) + b for row, b in zip(rs.mat_inv(y.w), y.t)]),
    )


def aff_inv(rs: RootSystem, x: AffineElement) -> AffineElement:
    return AffineElement(rs.mat_inv(x.w), rs.neg(rs.apply(x.w, x.t)))


def aff_length(rs: RootSystem, x: AffineElement) -> int:
    """sum over alpha > 0 of |<t, alpha_vee> + [w(alpha) < 0]|."""
    memo = rs.memo("aff_length")
    res = memo.get(x)
    if res is not None:
        return res
    flag_memo = rs.memo("inversion_flags")
    flags = flag_memo.get(x.w)
    if flags is None:
        flags = flag_memo[x.w] = rs.inversion_flags(x.w)
    t = x.t
    res = memo[x] = sum(
        [abs(sum(map(mul, row, t)) + f) for row, f in zip(rs.coroot_rows, flags)]
    )
    return res


# ---------------------------------------------------------------------------
# Simple generators


def simple_generators(rs: RootSystem) -> dict:
    """id -> AffineElement for all Coxeter generators of W_aff^Cox."""
    memo = rs.memo("gens")
    if memo:
        return memo
    gens = {}
    for i in range(rs.rank):
        gens[i + 1] = AffineElement(rs.simple_reflection_matrix(i), rs.zero())
    for c, (indices, _) in enumerate(rs.components):
        found = []
        for r in rs.positive_roots:
            if any(r.root_coords[j] != 0 and j not in indices
                   for j in range(rs.rank)):
                continue
            cand = AffineElement(rs.reflection_matrix(r), rs.neg(r.coords))
            if aff_length(rs, cand) == 1:
                found.append(cand)
        if len(found) != 1:
            raise RootSystemError(
                f"affine generator search failed for component {c}: "
                f"{len(found)} candidates"
            )
        gens[-c] = found[0]
    memo.update(gens)
    return memo


def generator_order(rs: RootSystem):
    """Deterministic generator ordering: finite 1..rank, then affine."""
    return sorted(simple_generators(rs), key=gen_sort_key)


def gen_sort_key(gid: int):
    return (0, gid) if gid > 0 else (1, -gid)


# ---------------------------------------------------------------------------
# Reduced words and Omega


def reduced_word(rs: RootSystem, x: AffineElement):
    """(omega, word): x = omega * s_{word[0]} ... s_{word[-1]} with
    len(word) == len(x) and len(omega) == 0.

    Greedy right-descent stripping; the smallest generator id wins ties.
    """
    memo = rs.memo("reduced_word")
    res = memo.get(x)
    if res is not None:
        return res
    gens = simple_generators(rs)
    order = generator_order(rs)
    letters = []
    cur = x
    clen = aff_length(rs, cur)
    while clen > 0:
        for gid in order:
            nxt = aff_mul(rs, cur, gens[gid])
            nlen = aff_length(rs, nxt)
            if nlen < clen:
                letters.append(gid)
                cur, clen = nxt, nlen
                break
        else:
            raise AssertionError("positive-length element with no right descent")
    res = (cur, tuple(reversed(letters)))
    memo[x] = res
    return res


def omega_decompose(rs: RootSystem, x: AffineElement):
    """x = omega * u with len(omega) = 0 and u in W_aff^Cox."""
    omega, word = reduced_word(rs, x)
    u = aff_mul(rs, aff_inv(rs, omega), x)
    if rs.root_coords_int(u.t) is None:
        raise AssertionError(f"omega_decompose({x}): u has a translation outside Z.Phi")
    return omega, u


def coset_class_key(rs: RootSystem, lam: Weight):
    """Canonical key of the class of lam in X / Z.Phi: det A times its
    simple-root coordinates, modulo det A."""
    det = rs.cartan_det
    return tuple([sum(map(mul, row, lam)) % det for row in rs.cartan_adjugate])


def omega_elements(rs: RootSystem) -> dict:
    """class key -> the length-0 element of W_aff in that Z.Phi-class."""
    memo = rs.memo("omega_elements")
    if memo:
        return memo
    reps = {coset_class_key(rs, rs.zero()): rs.zero()}
    frontier = [rs.zero()]
    fund = [tuple(int(i == j) for j in range(rs.rank)) for i in range(rs.rank)]
    while frontier:
        nxt = []
        for lam in frontier:
            for f in fund:
                mu = rs.add(lam, f)
                key = coset_class_key(rs, mu)
                if key not in reps:
                    reps[key] = mu
                    nxt.append(mu)
        frontier = nxt
    for key, lam in reps.items():
        omega, _ = reduced_word(rs, t_lambda(rs, lam))
        if aff_length(rs, omega) != 0:
            raise AssertionError(f"Omega representative of {lam} has positive length")
        memo[key] = omega
    return memo


def omega_of_weight(rs: RootSystem, lam: Weight) -> AffineElement:
    return omega_elements(rs)[coset_class_key(rs, lam)]


# ---------------------------------------------------------------------------
# Bruhat order


def bruhat_leq(rs: RootSystem, x: AffineElement, y: AffineElement) -> bool:
    """Bruhat order on W_aff, defined componentwise over Omega: elements with
    different length-0 parts are incomparable."""
    ox, ux = omega_decompose(rs, x)
    oy, uy = omega_decompose(rs, y)
    if ox != oy:
        return False
    return _bruhat_cox(rs, ux, uy)


def _bruhat_cox(rs, u, w) -> bool:
    memo = rs.memo("bruhat")
    gens = simple_generators(rs)
    order = generator_order(rs)
    ident = identity(rs)

    def rec(u, w):
        if u == w or u == ident:
            return True
        lu, lw = aff_length(rs, u), aff_length(rs, w)
        if lu > lw or lw == 0:
            return False
        key = (u, w)
        res = memo.get(key)
        if res is not None:
            return res
        for gid in order:
            sw = aff_mul(rs, gens[gid], w)
            if aff_length(rs, sw) < lw:
                su = aff_mul(rs, gens[gid], u)
                if aff_length(rs, su) < lu:
                    res = rec(su, sw)
                else:
                    res = rec(u, sw)
                break
        else:
            raise AssertionError("no left descent found")
        memo[key] = res
        return res

    return rec(u, w)


# ---------------------------------------------------------------------------
# Minimal coset representatives and the order on X


def w_lambda(rs: RootSystem, lam: Weight):
    """(w_lam, delta(lam)): the shortest element of W t_lam, equal to
    v t_lam where v is minimal with v(lam) dominant."""
    memo = rs.memo("w_lambda")
    res = memo.get(lam)
    if res is not None:
        return res
    dom, v, delta = rs.dominant_rep(lam)
    elt = AffineElement(v.matrix, tuple(lam))
    ll = aff_length(rs, elt)
    if ll != aff_length(rs, t_lambda(rs, lam)) - delta:
        raise AssertionError(f"length identity failed for w_lambda({lam})")
    res = (elt, delta)
    memo[lam] = res
    return res


def order_leq_weights(rs: RootSystem, lam: Weight, mu: Weight) -> bool:
    """lam <= mu iff w_lam precedes w_mu in the Bruhat order."""
    return bruhat_leq(rs, w_lambda(rs, lam)[0], w_lambda(rs, mu)[0])


# ---------------------------------------------------------------------------
# Enumeration helpers


def weight_box(rs: RootSystem, radius: int):
    """All weights with |coords_i| <= radius."""
    import itertools

    return [
        tuple(c)
        for c in itertools.product(range(-radius, radius + 1), repeat=rs.rank)
    ]


def dominant_box(rs: RootSystem, radius: int):
    import itertools

    return [tuple(c) for c in itertools.product(range(radius + 1), repeat=rs.rank)]
