"""Extended affine Weyl group W_aff = W ⋉ X.

An element w.t_lam is stored as ``AffineElement(w_matrix, lam)``.  The
multiplication rule is (w t_lam)(w' t_mu) = (w w') t_{w'^{-1}(lam) + mu}.

The Iwahori-Matsumoto length

    len(w t_lam) = sum_{a in Phi+ , w(a) > 0} |<lam, a_vee>|
                 + sum_{a in Phi+ , w(a) < 0} |1 + <lam, a_vee>|

extends the Coxeter length of W_aff^Cox = W ⋉ Z.Phi to the whole group; the
length-zero elements form the finite abelian subgroup Omega ~ X / Z.Phi.

Simple reflection ids: positive ints 1..rank are the finite generators
(s_{alpha_i} with 1-based i); id -c (c >= 0) is the affine generator
s_gamma t_{-gamma} of the c-th irreducible component, with gamma its highest
short root.  So "s0" is the affine generator of the first component.
Multiplying by one generator on the right and asking whether the length
went down is ``gen_step``, in closed form from the generator's simple affine
root; ``aff_mul`` and ``aff_length`` are the general path and its oracle.
The finite part of a step depends only on (w, gid), so the table
rs.memo("finite_step") keeps w s_beta and the sign of w beta for each pair
met, and a step after the first is O(rank).
``walk_down`` follows ``first_descent`` down to a memoised key or Omega.
"""

from __future__ import annotations

from operator import mul
from typing import NamedTuple

from .rootdata import RootSystem, Weight, closure, memoized


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


@memoized("aff_length")
def aff_length(rs: RootSystem, x: AffineElement) -> int:
    """sum over alpha > 0 of |<t, alpha_vee> + [w(alpha) < 0]|."""
    flag_memo = rs.memo("inversion_flags")
    flags = flag_memo.get(x.w)
    if flags is None:
        flags = flag_memo[x.w] = rs.inversion_flags(x.w)
    t = x.t
    return sum(
        [abs(sum(map(mul, row, t)) + f) for row, f in zip(rs.coroot_rows, flags)]
    )


# ---------------------------------------------------------------------------
# Simple generators and the one-generator step


@memoized("gen_roots")
def gen_roots(rs: RootSystem) -> dict:
    """id -> (beta, beta_vee, n) for the Coxeter generators of W_aff^Cox:
    s = s_beta t_{n beta}, the reflection in the simple affine root
    a_s = beta + n delta.  A finite s_i is (alpha_i, alpha_i_vee, 0).  The
    affine generator of a component is s_0 = s_gamma t_{-gamma}, that is
    (-gamma, -gamma_vee, 1), where gamma is the lowest dominant positive root
    of the component, its highest short root.  That s_0 has length 1 is
    checked by test_affine_generators_match_search and the order suite's
    length-invariants report."""
    table = {i + 1: (alpha, unit, 0) for i, (alpha, unit)
             in enumerate(zip(rs.simple_roots, rs.identity_matrix))}
    for c, (indices, _) in enumerate(rs.components):
        gamma = next(
            r for r in rs.positive_roots
            if min(r.coords) >= 0
            and all(r.root_coords[j] == 0 or j in indices for j in range(rs.rank))
        )
        table[-c] = (rs.neg(gamma.coords), rs.neg(gamma.coroot), 1)
    return table


@memoized("gens")
def simple_generators(rs: RootSystem) -> dict:
    """id -> AffineElement for all Coxeter generators of W_aff^Cox."""
    ident = identity(rs)
    return {gid: gen_step(rs, ident, gid)[0] for gid in gen_roots(rs)}


# x = w t_lam acts on affine roots by x(beta + n delta) = w beta +
# (n - <lam, beta_vee>) delta, and x s < x exactly when x(a_s) < 0
# (Bjorner-Brenti, Combinatorics of Coxeter Groups, GTM 231, Prop. 4.4.6):
# c = n - <lam, beta_vee> < 0, or c = 0 and w beta < 0.  A root's sign is
# that of its height, <height_row, root>.  Only right products are stepped
# here: s x is the inverse of x^-1 s.


def _finite_step(rs: RootSystem, w, gid: int):
    """Fill and return rs.memo("finite_step")[w, gid] = (w s_beta,
    [w beta < 0], beta, beta_vee, n) for the generator s = gid; the one
    place w beta is computed."""
    beta, cobeta, n = gen_roots(rs)[gid]
    wb = [sum(map(mul, row, beta)) for row in w]
    entry = rs.memo("finite_step")[w, gid] = (
        tuple([tuple([a - b * e for a, e in zip(row, cobeta)])
               for row, b in zip(w, wb)]),
        sum(map(mul, rs.height_row, wb)) < 0, beta, cobeta, n)
    return entry


def gen_step(rs: RootSystem, x: AffineElement, gid: int):
    """(y, down): y = x s for the generator s = gid, and whether
    len(y) < len(x).

    x s = (w - (w beta) beta_vee^T) t_{lam + c beta}, with
    c = n - <lam, beta_vee> for s = s_beta t_{n beta}; for a finite
    s_i (beta_vee = e_i, n = 0) that is c = -lam_i."""
    w, lam = x
    ws, neg, beta, cobeta, n = (rs.memo("finite_step").get((w, gid))
                                or _finite_step(rs, w, gid))
    c = -lam[gid - 1] if gid > 0 else n - sum(map(mul, cobeta, lam))
    if c:
        lam = tuple([a + c * b for a, b in zip(lam, beta)])
    return AffineElement(ws, lam), c < 0 or (c == 0 and neg)


def first_descent(rs: RootSystem, x: AffineElement):
    """(gid, x s) for the first s in generator order with len(x s) < len(x),
    or None when len(x) = 0.  Only the descent found is stepped."""
    w, lam = x
    table = rs.memo("finite_step")
    for gid, (_, cobeta, n) in gen_roots(rs).items():
        c = -lam[gid - 1] if gid > 0 else n - sum(map(mul, cobeta, lam))
        if c < 0 or (c == 0 and (table.get((w, gid))
                                 or _finite_step(rs, w, gid))[1]):
            return gid, gen_step(rs, x, gid)[0]


def walk_down(rs: RootSystem, key, memo, descent):
    """(end, gids): follow descent(rs, key) = (gid, key') from key to a key
    in memo or one with no descent (None); gids are those passed, top first."""
    gids = []
    while key not in memo and (step := descent(rs, key)):
        gids.append(step[0])
        key = step[1]
    return key, gids


def generator_order(rs: RootSystem):
    """Deterministic generator ordering: finite 1..rank, then affine 0, -1,
    ..., the order in which gen_roots stores them."""
    return list(gen_roots(rs))


# ---------------------------------------------------------------------------
# Reduced words and Omega


@memoized("reduced_word")
def reduced_word(rs: RootSystem, x: AffineElement):
    """(omega, word): x = omega * s_{word[0]} ... s_{word[-1]} with
    len(word) == len(x) and len(omega) == 0.

    Greedy stripping by first_descent, which depends on the element alone,
    so the walk stops at the first element whose word is memoised.
    """
    memo = rs.memo("reduced_word")
    cur, gids = walk_down(rs, x, memo, first_descent)
    omega, word = memo.get(cur, (cur, ()))
    return omega, word + tuple(reversed(gids))


def coset_class_key(rs: RootSystem, lam: Weight):
    """Canonical key of the class of lam in X / Z.Phi: det A times its
    simple-root coordinates, modulo det A."""
    det = rs.cartan_det
    return tuple([sum(map(mul, row, lam)) % det for row in rs.cartan_adjugate])


@memoized("omega_elements")
def omega_elements(rs: RootSystem) -> dict:
    """class key -> the length-0 element of W_aff in that Z.Phi-class.

    w t_lam -> lam mod Z.Phi is a homomorphism with kernel W_aff^Cox, so
    Omega is the group generated by the length-0 parts of the t_f, f over
    the fundamental weights (the rows of the identity) outside Z.Phi."""
    gens = [reduced_word(rs, t_lambda(rs, f))[0]
            for f in rs.identity_matrix if any(coset_class_key(rs, f))]
    return {coset_class_key(rs, omega.t): omega
            for omega in closure([identity(rs)],
                                 lambda omega: [aff_mul(rs, omega, g) for g in gens])}


def omega_of_weight(rs: RootSystem, lam: Weight) -> AffineElement:
    """The length-0 element of W_aff in the Z.Phi-class of lam, without
    building Omega: the length-0 part of t_lam', lam' = lam reduced
    coordinatewise mod det A, which keeps the class since det A * omega_i
    lies in Z.Phi."""
    if not any(coset_class_key(rs, lam)):
        return identity(rs)
    det = rs.cartan_det
    return reduced_word(rs, t_lambda(rs, tuple([a % det for a in lam])))[0]


# ---------------------------------------------------------------------------
# Bruhat order


def bruhat_leq(rs: RootSystem, x: AffineElement, y: AffineElement) -> bool:
    """Bruhat order on W_aff, defined componentwise over Omega: elements with
    different length-0 parts, that is translations in different
    Z.Phi-classes, are incomparable."""
    if coset_class_key(rs, x.t) != coset_class_key(rs, y.t):
        return False
    return _bruhat_walk(rs, x, y)


def _bruhat_walk(rs, u, w) -> bool:
    """u <= w for u, w in one Omega-component by the lifting property
    (Bjorner-Brenti, GTM 231, Prop. 2.2.7): with s a right descent of w,
    compare u*s with w*s when s also descends u, and u with w*s otherwise.
    A left factor in Omega changes no descent, step or length, so the walk
    needs no Omega split; its one length-0 element lies below all.  Each
    step shortens w; every W_aff pair passed is memoized with the answer."""
    memo = rs.memo("bruhat")
    lu, lw = aff_length(rs, u), aff_length(rs, w)
    walked = []
    while True:
        if u == w or lu == 0:
            res = True
            break
        if lu > lw:
            res = False
            break
        res = memo.get((u, w))
        if res is not None:
            break
        walked.append((u, w))
        gid, w = first_descent(rs, w)
        us, down = gen_step(rs, u, gid)
        if down:
            u, lu = us, lu - 1
        lw -= 1
    for key in walked:
        memo[key] = res
    return res


# ---------------------------------------------------------------------------
# Minimal coset representatives and the order on X


@memoized("w_lambda")
def w_lambda(rs: RootSystem, lam: Weight):
    """(w_lam, delta(lam)): the shortest element of W t_lam, equal to
    v t_lam where v is minimal with v(lam) dominant."""
    _, v, delta = rs.dominant_rep(lam)
    return AffineElement(v.matrix, lam), delta


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
