"""Characters of G-modules: Kostant partitions, Lusztig q-analogues,
Freudenthal multiplicities and full weight tables.

Everything here is characteristic-zero character combinatorics: Weyl and
induced modules share characters, so a CharacterMultiset in the "Weyl" basis
carries the same numerical data as one in the "good" basis.  Positive-
characteristic tilting characters enter only as user-supplied multisets.
"""

from __future__ import annotations

from itertools import product
from math import prod
from operator import ge, le, mul
from typing import NamedTuple

from .laurent import LaurentPoly, ZERO
from .rootdata import RootSystem, RootSystemError, Weight, memoized

KOSTANT_BOUND = 2 * 10**5  # entries of a dense Kostant table
KOSTANT_BIT_BOUND = 10**8  # bits of the packed polynomials of that table

WEYL_BASIS = "Weyl"
GOOD_BASIS = "good"


class CharacterMultiset(NamedTuple):
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


# ---------------------------------------------------------------------------
# Kostant partition function


@memoized("kostant")
def kostant_partition(rs: RootSystem, mu: Weight) -> LaurentPoly:
    """P_mu(v): graded count of multisets of positive roots summing to mu,
    v tracking the multiset size.  A value not yet in the memo is the product
    over the irreducible components of rs of P at mu's simple-root
    coordinates on that component: v^c on a component of rank 1, whose one
    positive root is its simple root, and otherwise an entry of the
    component's dense table, grown to cover mu if needed."""
    c = rs.root_coords_int(mu)
    if c is None or any(x < 0 for x in c):
        return ZERO
    for k, (idx, _) in enumerate(rs.components):
        part = c[idx[0]:idx[-1] + 1]
        p = (LaurentPoly.v(part[0]) if len(part) == 1
             else _kostant_entry(rs, k, part))
        res = p if k == 0 else res * p
    return res


def _kostant_entry(rs: RootSystem, comp: int, coords) -> LaurentPoly:
    """P at the simple-root coordinates coords of component comp, unpacked
    from the component's dense table."""
    table = _kostant_table(rs, comp, coords)
    packed = table["cells"][sum(map(mul, coords, table["strides"]))]
    width = table["width"]
    mask = (1 << width) - 1
    return LaurentPoly({
        k: (packed >> (k * width)) & mask
        for k in range(-(-packed.bit_length() // width))
    })


def _kostant_table(rs: RootSystem, comp: int, coords) -> dict:
    """The dense Kostant table of the irreducible component comp of rs, kept
    in rs.memo("kostant_table")[comp].  It covers the box [0, top] of the
    component's simple-root coordinates.  When coords lies outside the box,
    the box grows to the componentwise max of the old top and coords, or, if
    that is over a budget, to the box of coords alone, and the table is
    rebuilt; so whether a request is answered does not depend on earlier
    ones."""
    tables = rs.memo("kostant_table")
    table = tables.get(comp)
    if table is not None and all(map(le, coords, table["top"])):
        return table
    idx = rs.components[comp][0]
    roots = [a for a in (r.root_coords[idx[0]:idx[-1] + 1]
                         for r in rs.positive_roots) if any(a)]
    grown = coords if table is None else tuple(map(max, table["top"], coords))
    try:
        table = _kostant_build(roots, grown)
    except RootSystemError:
        if grown == coords:
            raise
        table = _kostant_build(roots, coords)
    tables[comp] = table
    return table


def _kostant_build(roots, top) -> dict:
    """P_gamma(v) for every gamma in the box [0, top], Kronecker-packed into
    one int per gamma with `width` bits per coefficient, at flat index
    sum(gamma[i] * strides[i]).

    Every coefficient of P_gamma is at most P_gamma(1), so the bit length of
    the largest value of the sweep at v = 1 is a width at which no carry
    crosses a coefficient.  P_gamma has degree ht(gamma) with leading
    coefficient 1 (only the simple roots make a multiset that large), so
    its packed int has width * ht(gamma) + 1 bits, and the table
    size + width * size * ht(top) / 2 bits in all.  Both the size and the
    bits are checked against their budgets before the packed sweep
    allocates anything; only the sweep at v = 1, bounded by the size, comes
    first."""
    size = _box_size(top)
    if size > KOSTANT_BOUND:
        raise RootSystemError(
            f"Kostant table over the box {list(top)} of simple-root "
            f"coordinates needs {size} entries, above the bound {KOSTANT_BOUND}"
        )
    at_one, strides = _kostant_sweep(roots, top, 0)
    width = max(at_one).bit_length()
    bits = size + width * size * sum(top) // 2
    if bits > KOSTANT_BIT_BOUND:
        raise RootSystemError(
            f"Kostant table over the box {list(top)} of simple-root "
            f"coordinates packs into {bits} bits, above the bound "
            f"{KOSTANT_BIT_BOUND}"
        )
    cells, _ = _kostant_sweep(roots, top, width)
    return {"top": top, "strides": strides, "width": width, "cells": cells}


def _box_size(top) -> int:
    return prod(t + 1 for t in top)


def _kostant_sweep(roots, top, width):
    """The unbounded-knapsack sweep over the box [0, top]: for each positive
    root alpha, P[gamma] += v * P[gamma - alpha] in increasing flat order,
    where v * P is P << width (width 0 gives the values at v = 1).  The
    coordinate with the largest top is contiguous (stride 1), so the sweep
    goes by rows along it; a root that is nonzero off that coordinate reads
    a row that lies wholly before the one it writes.  Returns the cells and
    the strides."""
    order = sorted(range(len(top)), key=top.__getitem__)
    dims = [top[i] + 1 for i in order]
    step = [prod(dims[k + 1:]) for k in range(len(dims))]
    n = dims[-1]
    cells = [0] * prod(dims)
    cells[0] = 1
    for root in roots:
        a = [root[i] for i in order]
        if any(map(ge, a, dims)):
            continue
        off = sum(map(mul, a, step))
        for prefix in product(*map(range, a[:-1], dims[:-1])):
            row = sum(map(mul, prefix, step))
            lo, hi = row + a[-1], row + n
            if off >= n:
                cells[lo:hi] = [
                    x + (y << width)
                    for x, y in zip(cells[lo:hi], cells[lo - off:hi - off])
                ]
            else:
                for j in range(lo, hi):
                    cells[j] += cells[j - off] << width
    strides = [0] * len(top)
    for i, s in zip(order, step):
        strides[i] = s
    return cells, strides


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
    # Hand-written: a tilt pass makes 1,629 short walks, 1.15x slower through closure.
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


# ---------------------------------------------------------------------------
# Freudenthal weight multiplicities (independent v=1 oracle)


@memoized("freudenthal")
def _dominant_mult_table(rs: RootSystem, lam: Weight) -> dict:
    """dominant weight -> dim M(lam)_weight, by the Freudenthal recursion on
    the W-invariant form rs.inner."""
    if not rs.is_dominant(lam):
        raise ValueError("Freudenthal table needs a dominant highest weight")
    doms = rs.dominant_below(lam)
    doms.sort(key=lambda mu: sum(map(mul, rs.height_row, rs.sub(lam, mu))))
    rho = rs.rho
    lam_norm = rs.inner(rs.add(lam, rho), rs.add(lam, rho))
    lam_sq = rs.inner(lam, lam)
    table = {}
    for mu in doms:
        if mu == lam:
            table[mu] = 1
            continue
        num = 0
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
        val, rem = divmod(num, denom)
        if rem or val < 0:
            raise AssertionError(
                f"Freudenthal multiplicity {num}/{denom} at {mu} in M({lam}) "
                "is not a nonnegative integer"
            )
        if val:
            table[mu] = val
    return table


def freudenthal_mult(rs: RootSystem, lam: Weight, mu: Weight) -> int:
    """dim M(lam)_mu for dominant lam (0 outside the weight set)."""
    return _dominant_mult_table(rs, lam).get(rs.dom(tuple(mu)), 0)


def module_weights(rs: RootSystem, lam: Weight) -> dict:
    """Full weight table weight -> multiplicity of the Weyl module M(lam)."""
    return {w: m for mu, m in _dominant_mult_table(rs, lam).items()
            for w in rs.weyl_orbit(mu)}


def full_weights(rs: RootSystem, cm: CharacterMultiset) -> dict:
    """Total weight multiplicities of the module described by cm."""
    out = {}
    for nu, count in cm.mults:
        for w, m in module_weights(rs, nu).items():
            s = out.get(w, 0) + count * m
            out[w] = s
    return {w: m for w, m in out.items() if m}
