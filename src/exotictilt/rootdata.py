"""Finite root systems of simply-connected semisimple type, in exact arithmetic.

Conventions
-----------
* A weight is a plain tuple of ints in *fundamental-weight coordinates*:
  ``coords[i] == <lam, alpha_i_vee>`` (0-based index i).
* The Cartan matrix entry ``A[i][j]`` is ``<alpha_j, alpha_i_vee>``, so the
  j-th simple root has fundamental coordinates equal to column j of A.
* Weyl group elements act on fundamental coordinates by integer matrices
  (tuples of row tuples).
* rho is the all-ones weight.

Only products of irreducible finite types are supported (total rank <= 8),
so the weight lattice is the full lattice Z^rank and X / Z.Phi is finite.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import wraps
from math import gcd, lcm
from operator import mul
from typing import NamedTuple

Weight = tuple  # tuple[int, ...]
Matrix = tuple  # tuple[tuple[int, ...], ...]

MAX_RANK = 8
WEYL_BOUND = 10**6


class RootSystemError(ValueError):
    pass


class PositiveRoot(NamedTuple):
    coords: Weight        # fundamental-weight coordinates
    root_coords: tuple    # coordinates in the simple-root basis
    coroot: tuple         # functional: <lam, coroot> = dot(coroot, lam)


@dataclass(frozen=True)
class WeylElement:
    matrix: Matrix
    length: int

    def __repr__(self):
        return f"WeylElement(len={self.length})"


# ---------------------------------------------------------------------------
# Cartan matrices

_POS_ROOT_COUNT = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}


def _cartan_matrix(letter: str, n: int):
    ok = (
        (letter == "A" and n >= 1)
        or (letter in ("B", "C") and n >= 2)
        or (letter == "D" and n >= 4)
        or (letter == "E" and n in (6, 7, 8))
        or (letter == "F" and n == 4)
        or (letter == "G" and n == 2)
    )
    if not ok:
        raise RootSystemError(f"unknown or unsupported Cartan type {letter}{n}")
    a = [[2 * (i == j) for j in range(n)] for i in range(n)]

    def link(i, j, aij=-1, aji=-1):
        a[i][j] = aij
        a[j][i] = aji

    if letter in ("A", "B", "C"):
        for i in range(n - 1):
            link(i, i + 1)
        if letter == "B" and n >= 2:
            a[n - 1][n - 2] = -2    # <alpha_{n-1}, alpha_n_vee> = -2, alpha_n short
        if letter == "C" and n >= 2:
            a[n - 2][n - 1] = -2
    elif letter == "D":
        for i in range(n - 2):
            link(i, i + 1)
        link(n - 3, n - 1)
    elif letter == "E":
        # Bourbaki numbering: chain 1-3-4-5-...-n with node 2 attached to 4.
        chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]
        for i, j in zip(chain, chain[1:]):
            link(i, j)
        link(1, 3)
    elif letter == "F":
        link(0, 1)
        link(1, 2, aij=-2, aji=-1)
        link(2, 3)
    elif letter == "G":
        link(0, 1, aij=-3, aji=-1)
    return tuple(tuple(row) for row in a)


def _validate_cartan(a) -> tuple:
    """Check a Cartan matrix of finite type; return its symmetrizers d,
    det a and det a * a^-1.

    D*A is symmetric; it is positive definite iff its leading principal
    minors are all positive (Sylvester).  Those are (d_1 ... d_k) det A_k
    with every d_i > 0, so the pivots of one elimination pass on A decide
    it."""
    n = len(a)
    for i in range(n):
        if a[i][i] != 2:
            raise RootSystemError("Cartan diagonal must be 2")
        for j in range(n):
            if i != j and (a[i][j] > 0 or (a[i][j] == 0) != (a[j][i] == 0)):
                raise RootSystemError("invalid Cartan off-diagonal entries")
    return (_symmetrizers(a), *_det_adjugate(a))


def _symmetrizers(a):
    """Positive integers d with d[i]*a[i][j] == d[j]*a[j][i], as a primitive
    vector: d[j] = d[i] * a[i][j] / a[j][i] along the Dynkin diagram, carried
    as integer numerators and denominators."""
    n = len(a)
    num, den = [0] * n, [1] * n
    for start in range(n):
        if num[start]:
            continue
        num[start] = 1
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if a[i][j] and i != j and not num[j]:
                    num[j], den[j] = num[i] * -a[i][j], den[i] * -a[j][i]
                    stack.append(j)
    common = lcm(*den)
    ints = [x * (common // y) for x, y in zip(num, den)]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def _det_adjugate(a):
    """(det a, det a * a^-1) from one fraction-free Gauss-Jordan pass on
    [a | I], without row exchanges.

    The k-th pivot is the k-th leading principal minor of a and every entry
    is a minor, so each division is exact.  A pivot <= 0 raises
    RootSystemError: a Cartan matrix with one is not of finite type."""
    n = len(a)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    prev = 1
    for k in range(n):
        pivot_row = m[k]
        pivot = pivot_row[k]
        if pivot <= 0:
            raise RootSystemError("Cartan symmetrization not positive definite")
        for i in range(n):
            if i != k:
                f = m[i][k]
                m[i] = [(x * pivot - f * y) // prev
                        for x, y in zip(m[i], pivot_row)]
        prev = pivot
    return m[0][0], tuple(tuple(row[n:]) for row in m)


# ---------------------------------------------------------------------------
# Closures


def closure(starts, moves) -> list:
    """Every item reachable from starts through moves(x), each once, in
    breadth-first discovery order; the first of duplicate starts is kept.
    The list grows while the loop runs over it."""
    out = list(dict.fromkeys(starts))
    seen = set(out)
    for x in out:
        for y in moves(x):
            if y not in seen:
                seen.add(y)
                out.append(y)
    return out


# ---------------------------------------------------------------------------
# Memo tables


def memoized(name: str):
    """Keep fn(rs, *args) in the table rs.memo(name), keyed by the single
    argument, or by the tuple of arguments when there are none or several.
    A list argument is keyed, and passed on, as a tuple.  Each root system
    has its own tables; they only grow.  fn never returns None, which marks
    a missing entry, so a lookup is one dict.get and a miss raises
    nothing."""
    def decorate(fn):
        if fn.__code__.co_argcount == 2:
            @wraps(fn)
            def one(rs, arg):
                try:
                    res = rs._cache[name].get(arg)
                except TypeError:
                    if type(arg) is not list:
                        raise
                    return one(rs, tuple(arg))
                if res is None:
                    res = rs._cache[name][arg] = fn(rs, arg)
                return res
            return one

        @wraps(fn)
        def many(rs, *args):
            res = rs._cache[name].get(args)
            if res is None:
                res = rs._cache[name][args] = fn(rs, *args)
            return res
        return many
    return decorate


# ---------------------------------------------------------------------------
# Root system


@dataclass
class RootSystem:
    spec: str
    rank: int
    cartan_matrix: Matrix
    simple_roots: tuple            # of Weight (columns of the Cartan matrix)
    positive_roots: tuple          # of PositiveRoot
    components: tuple              # of (indices tuple, highest_root: PositiveRoot)
    symmetrizers: tuple            # d_i with (alpha_i, alpha_i) = 2 d_i
    cartan_det: int                # det A > 0
    cartan_adjugate: Matrix        # det A * A^-1: det A * root coordinates
    height_row: tuple              # det A * ht(lam) = <height_row, lam>
    identity_matrix: Matrix
    coroot_rows: tuple             # coroot functionals of the positive roots
    # memo tables by name, made on first use
    _cache: dict = field(default_factory=lambda: defaultdict(dict),
                         repr=False, compare=False)

    # -- small linear algebra -------------------------------------------------

    @property
    def rho(self) -> Weight:
        return (1,) * self.rank

    def zero(self) -> Weight:
        return (0,) * self.rank

    def memo(self, name: str) -> dict:
        return self._cache[name]

    def add(self, lam: Weight, mu: Weight) -> Weight:
        return tuple(a + b for a, b in zip(lam, mu))

    def sub(self, lam: Weight, mu: Weight) -> Weight:
        return tuple(a - b for a, b in zip(lam, mu))

    def neg(self, lam: Weight) -> Weight:
        return tuple(-a for a in lam)

    def apply(self, matrix: Matrix, lam: Weight) -> Weight:
        return tuple([sum(map(mul, row, lam)) for row in matrix])

    def mat_mul(self, m1: Matrix, m2: Matrix) -> Matrix:
        cols = tuple(zip(*m2))
        return tuple([tuple([sum(map(mul, row, col)) for col in cols]) for row in m1])

    def mat_inv(self, m: Matrix) -> Matrix:
        """Inverse of a Weyl group matrix m: the minimal v with v(m rho)
        dominant.  rho is regular, so v(m rho) = rho and v = m^-1."""
        memo = self.memo("mat_inv")
        res = memo.get(m)
        if res is None:
            res = self.dominant_rep(self.apply(m, self.rho))[1].matrix
            if self.mat_mul(m, res) != self.identity_matrix:
                raise RootSystemError("mat_inv needs a Weyl group matrix")
            memo[m] = res
            memo[res] = m
        return res

    def simple_reflection_matrix(self, i: int) -> Matrix:
        """Matrix of s_{alpha_i} (0-based i) on fundamental coordinates."""
        alpha = self.simple_roots[i]
        return tuple(
            tuple(int(k == j) - alpha[k] * int(i == j) for j in range(self.rank))
            for k in range(self.rank)
        )

    def reflection_matrix(self, root: PositiveRoot) -> Matrix:
        return tuple(
            tuple(int(k == j) - root.coords[k] * root.coroot[j] for j in range(self.rank))
            for k in range(self.rank)
        )

    # -- coordinates ----------------------------------------------------------

    def root_coords_int(self, lam: Weight):
        """Integer simple-root coordinates, or None if lam is not in Z.Phi."""
        det = self.cartan_det
        out = []
        for row in self.cartan_adjugate:
            q, r = divmod(sum(map(mul, row, lam)), det)
            if r:
                return None
            out.append(q)
        return tuple(out)

    def det_inner(self, lam: Weight, mu: Weight) -> int:
        """det A * (lam, mu) for the W-invariant inner product with
        (alpha_i, alpha_i) = 2 d_i: (lam, alpha_j) = d_j lam_j, and det A
        times mu's simple-root coordinates is the adjugate applied to mu."""
        return sum(
            sum(map(mul, row, mu)) * dj * lj
            for row, dj, lj in zip(self.cartan_adjugate, self.symmetrizers, lam)
        )

    # -- dominance -------------------------------------------------------------

    def is_dominant(self, lam: Weight) -> bool:
        return all(a >= 0 for a in lam)

    def dominance_leq(self, lam: Weight, mu: Weight) -> bool:
        """lam <= mu iff mu - lam is a nonnegative integer combination of
        simple roots."""
        c = self.root_coords_int(self.sub(mu, lam))
        return c is not None and all(x >= 0 for x in c)

    @memoized("dominant_rep")
    def dominant_rep(self, lam: Weight):
        """(dom, v, delta): dom = v(lam) dominant, v the minimal-length Weyl
        element achieving it, delta = length(v).

        Repeatedly reflects at the smallest simple index with negative pairing;
        the resulting v is minimal (exhaustively tested in low rank).
        """
        cur = lam
        rows = list(self.identity_matrix)
        steps = 0
        while True:
            i = next((k for k, a in enumerate(cur) if a < 0), None)
            if i is None:
                break
            alpha = self.simple_roots[i]
            cur = tuple([a - cur[i] * r for a, r in zip(cur, alpha)])
            # s_i M as a row operation: (s_i M)[k] = M[k] - alpha_i[k] M[i]
            row_i = rows[i]
            for k, ak in enumerate(alpha):
                if ak:
                    rows[k] = tuple([x - ak * y for x, y in zip(rows[k], row_i)])
            steps += 1
        mat = tuple(rows)
        v = WeylElement(mat, steps)
        if self.weyl_length(mat) != steps:
            raise AssertionError(
                f"dominant_rep of {lam}: {steps} reflections but length "
                f"{self.weyl_length(mat)}"
            )
        return cur, v, steps

    def dom(self, lam: Weight) -> Weight:
        return self.dominant_rep(lam)[0]

    def delta(self, lam: Weight) -> int:
        """Length of the minimal v with v(lam) dominant: the number of
        positive roots alpha with <lam, alpha_vee> < 0."""
        return sum([sum(map(mul, row, lam)) < 0 for row in self.coroot_rows])

    # -- Weyl group --------------------------------------------------------------

    def inversion_flags(self, matrix: Matrix) -> tuple:
        """The flags [w(alpha) < 0] over the positive roots, w = matrix.

        A root is negative exactly when its height is: det A * ht(beta) is
        the column sums of the adjugate paired with beta, and
        <w alpha, h> = <alpha, w^T h>, so one row vector u = w^T h decides
        every root."""
        u = [sum(map(mul, self.height_row, col)) for col in zip(*matrix)]
        return tuple([sum(map(mul, u, r.coords)) < 0 for r in self.positive_roots])

    def weyl_length(self, matrix: Matrix) -> int:
        return sum(self.inversion_flags(matrix))

    @memoized("weyl_group")
    def weyl_group(self):
        """All Weyl group elements, in breadth-first order from the identity
        under right multiplication by the simple reflections."""
        size = self.weyl_order()
        if size > WEYL_BOUND:
            raise RootSystemError(
                f"Weyl group of order {size} is larger than bound {WEYL_BOUND}")
        gens = [self.simple_reflection_matrix(i) for i in range(self.rank)]
        mats = closure([self.identity_matrix],
                       lambda m: [self.mat_mul(m, g) for g in gens])
        return [WeylElement(m, self.weyl_length(m)) for m in mats]

    def orbit_levels(self, d: Weight) -> dict:
        """{mu: delta(mu)} over the W-orbit of the dominant weight d.

        A step mu -> s_i(mu) with mu_i > 0 adds exactly one inversion, and
        every orbit weight is reached from d by such steps, so the
        breadth-first level of a weight is delta(mu).  From a non-dominant
        start these steps would miss part of the orbit."""
        if not self.is_dominant(d):
            raise ValueError("orbit_levels needs a dominant weight")
        levels = {d: 0}
        order = [d]
        for mu in order:
            k = levels[mu] + 1
            for c, alpha in zip(mu, self.simple_roots):
                if c > 0:
                    nu = tuple([a - c * r for a, r in zip(mu, alpha)])
                    if nu not in levels:
                        levels[nu] = k
                        order.append(nu)
        return levels

    def weyl_orbit(self, lam: Weight):
        return sorted(self.orbit_levels(self.dom(lam)))

    def weyl_order(self) -> int:
        """|W| by Macdonald's formula prod_{alpha>0} (ht alpha + 1) / ht alpha,
        without enumerating W."""
        num = den = 1
        for r in self.positive_roots:
            h = sum(r.root_coords)
            num *= h + 1
            den *= h
        return num // den

    @memoized("longest")
    def longest_element(self) -> WeylElement:
        """w_0, the minimal v with v(-rho) = rho (-rho is regular)."""
        return self.dominant_rep(self.neg(self.rho))[1]

    def minus_w0(self, lam: Weight) -> Weight:
        """-w_0(lam); permutes the dominant weights."""
        return self.neg(self.apply(self.longest_element().matrix, lam))

    def dominant_below(self, lam: Weight):
        """The dominant weights mu <= lam, for dominant lam, sorted.

        Any two comparable dominant weights are joined by a chain of dominant
        weights that differ by positive roots (Stembridge, "The partial order
        of dominant weights", 1998), so a walk down by positive roots that
        stays dominant finds them all."""
        if not self.is_dominant(lam):
            raise ValueError("dominant_below needs a dominant weight")
        roots = [r.coords for r in self.positive_roots]

        def down(mu):
            for root in roots:
                nu = tuple([a - b for a, b in zip(mu, root)])
                if min(nu) >= 0:
                    yield nu
        return sorted(closure([lam], down))


# ---------------------------------------------------------------------------
# Construction


def _close_roots(rank, simple_roots):
    """All positive roots with simple-root coordinates and coroot functionals.

    s_i maps beta to beta - <beta, alpha_i_vee> alpha_i and beta_vee to
    beta_vee - <alpha_i, beta_vee> alpha_i_vee.  Only the steps up are
    taken, those with <beta, alpha_i_vee> < 0: every positive beta other
    than alpha_i has some i with s_i beta positive and lower, so the steps
    up from the simple roots reach every positive root."""
    def unit(i):
        return tuple(int(j == i) for j in range(rank))

    # Hand-written: closure over these triples made build_root_system 1.1x slower.
    seeds = [(alpha, unit(j), unit(j)) for j, alpha in enumerate(simple_roots)]
    seen = {s[0]: s for s in seeds}
    frontier = seeds
    while frontier:
        nxt = []
        for coords, rc, cr in frontier:
            for i, alpha in enumerate(simple_roots):
                p = coords[i]
                if p >= 0:
                    continue
                new_coords = tuple([a - p * b for a, b in zip(coords, alpha)])
                if new_coords in seen:
                    continue
                q = sum(map(mul, cr, alpha))
                entry = (
                    new_coords,
                    rc[:i] + (rc[i] - p,) + rc[i + 1:],
                    cr[:i] + (cr[i] - q,) + cr[i + 1:],
                )
                seen[new_coords] = entry
                nxt.append(entry)
        frontier = nxt
    pos = [PositiveRoot(*entry) for entry in seen.values()]
    pos.sort(key=lambda r: (sum(r.root_coords), r.root_coords))
    return tuple(pos)


def build_root_system(spec: str) -> RootSystem:
    """Build a root system from a type string such as "A2", "G2" or "A1xA1"."""
    spec = spec.strip()
    if not spec:
        raise RootSystemError("empty root-system spec")
    parts = [p.strip() for p in spec.split("x")]
    types = []
    for p in parts:
        if len(p) < 2 or p[0].upper() not in "ABCDEFG" or not p[1:].isdigit():
            raise RootSystemError(f"unknown root-system spec {p!r}")
        types.append((p[0].upper(), int(p[1:])))
    total = sum(n for _, n in types)
    if total > MAX_RANK:
        raise RootSystemError(f"total rank {total} exceeds bound {MAX_RANK}")

    blocks = [_cartan_matrix(letter, n) for letter, n in types]
    cartan = []
    offset = 0
    for b in blocks:
        n = len(b)
        for row in b:
            cartan.append((0,) * offset + row + (0,) * (total - offset - n))
        offset += n
    cartan = tuple(cartan)
    symmetrizers, det, adjugate = _validate_cartan(cartan)

    rank = total
    simple_roots = tuple(zip(*cartan))
    pos = _close_roots(rank, simple_roots)

    expected = sum(_POS_ROOT_COUNT[l](n) for l, n in types)
    if len(pos) != expected:
        raise RootSystemError(
            f"positive root closure produced {len(pos)}, expected {expected}"
        )

    comps = []
    offset = 0
    for letter, n in types:
        idx = tuple(range(offset, offset + n))
        in_comp = [
            r for r in pos if all(r.root_coords[j] == 0 or j in idx
                                  for j in range(rank))
        ]
        highest = max(in_comp, key=lambda r: sum(r.root_coords))
        comps.append((idx, highest))
        offset += n
    return RootSystem(
        spec="x".join(f"{l}{n}" for l, n in types),
        rank=rank,
        cartan_matrix=cartan,
        simple_roots=simple_roots,
        positive_roots=pos,
        components=tuple(comps),
        symmetrizers=symmetrizers,
        cartan_det=det,
        cartan_adjugate=adjugate,
        height_row=tuple(map(sum, zip(*adjugate))),
        identity_matrix=tuple(
            tuple(int(i == j) for j in range(rank)) for i in range(rank)
        ),
        coroot_rows=tuple(r.coroot for r in pos),
    )
