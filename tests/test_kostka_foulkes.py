"""Kostka-Foulkes polynomials by charge: a graded oracle for
charring.lusztig_q in type A that shares nothing with the Kostant partition
function.

For G = SL_{n+1}, M_lam^mu(q) is the Kostka-Foulkes polynomial K_{lam,mu}(q)
(Lusztig, Asterisque 101-102, 1983; Kato 1982).  By Lascoux and
Schutzenberger (Sur une conjecture de H. O. Foulkes, C. R. Acad. Sci. Paris
286, 1978) it is the sum of q^charge(T) over the semistandard tableaux T of
shape lam and content mu."""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from exotictilt import charring as ch
from exotictilt.laurent import LaurentPoly, ZERO

from conftest import get_rs


def partition(coords):
    """The n + 1 parts lam_i = a_i + ... + a_n of the SL_{n+1} weight with
    fundamental coordinates (a_1, ..., a_n)."""
    parts = [0]
    for a in reversed(coords):
        parts.append(parts[-1] + a)
    return parts[::-1]


def horizontal_strips(inner, outer, size):
    """The shapes kappa with inner <= kappa <= outer row by row and
    kappa / inner a horizontal strip of size boxes: inner_i <= kappa_i <=
    inner_{i-1}."""
    def grow(i, left):
        if i == len(inner):
            if not left:
                yield ()
            return
        top = outer[i] if i == 0 else min(outer[i], inner[i - 1])
        for k in range(inner[i], min(top, inner[i] + left) + 1):
            for rest in grow(i + 1, left - (k - inner[i])):
                yield (k, *rest)
    return grow(0, size)


def reading_words(shape, content):
    """The reading words (rows from the bottom up, each left to right) of
    the semistandard tableaux of the given shape and content, grown letter
    by letter: letter k fills a horizontal strip of content[k - 1] boxes."""
    def grow(k, inner, rows):
        if k > len(content):
            if list(inner) == list(shape):
                yield [x for row in reversed(rows) for x in row]
            return
        for outer in horizontal_strips(inner, shape, content[k - 1]):
            yield from grow(k + 1, outer, [
                row + [k] * (o - i) for row, i, o in zip(rows, inner, outer)])
    return grow(1, [0] * len(shape), [[] for _ in shape])


def charge(word):
    """Charge of a word of partition content: the sum of the charges of its
    standard subwords.  A subword takes the rightmost 1, then the nearest 2
    to its left, wrapping round to the right end when there is none, and so
    on up to the largest letter left.  Its letter 1 has index 0, and each
    next letter has the index of the one before, plus one if it lies to that
    one's right (that is, if the scan wrapped); its charge is the sum."""
    left = list(enumerate(word))   # (position, letter) not yet taken
    total = 0
    while left:
        pos, index, taken = len(word), 0, set()
        for k in range(1, max(x for _, x in left) + 1):
            places = [p for p, x in left if x == k]
            before = [p for p in places if p < pos]
            p = max(before) if before else max(places)
            if p > pos:
                index += 1
            total += index
            pos = p
            taken.add(p)
        left = [(p, x) for p, x in left if p not in taken]
    return total


def kostka_foulkes(lam, mu):
    """K_{lam,mu}(q) by charge, for SL_{n+1} weights in fundamental
    coordinates.  The smaller partition is padded with full columns of
    height n + 1 until the sizes agree; a size difference that n + 1 does
    not divide puts lam - mu outside Z.Phi, where K is 0."""
    lam, mu = partition(lam), partition(mu)
    diff, height = sum(lam) - sum(mu), len(lam)
    if diff % height:
        return ZERO
    if diff > 0:
        mu = [m + diff // height for m in mu]
    else:
        lam = [x - diff // height for x in lam]
    return LaurentPoly.from_pairs(
        (charge(w), 1) for w in reading_words(lam, mu))


def q_poly(*exps):
    return LaurentPoly.from_pairs((e, 1) for e in exps)


@pytest.mark.parametrize("shape, content, expected", [
    ((2, 1, 0), (1, 1, 1), q_poly(1, 2)),
    ((3, 1, 0), (2, 1, 1), q_poly(1, 2)),
    ((2, 2, 0, 0), (1, 1, 1, 1), q_poly(2, 4)),
    ((3, 1, 0, 0), (1, 1, 1, 1), q_poly(3, 4, 5)),
    ((2, 1, 1, 0), (1, 1, 1, 1), q_poly(1, 2, 3)),
    ((4, 0, 0), (2, 1, 1), q_poly(3)),
    ((2, 1, 0), (2, 1, 0), q_poly(0)),
])
def test_charge_gives_the_tabulated_kostka_foulkes_polynomials(
        shape, content, expected):
    """Values of Macdonald's tables (Symmetric Functions and Hall
    Polynomials, III.6): K_{(n),mu} = q^{n(mu)}, K_{lam,lam} = 1, and at
    content (1^n) the generic degrees, of top degree n(mu) - n(lam)."""
    got = LaurentPoly.from_pairs(
        (charge(w), 1) for w in reading_words(shape, content))
    assert got == expected


# Every dominant pair mu <= lam of these boxes of dominant weights (each
# coordinate of lam at most the radius): 1,971 pairs.
BOXES = [("A1", 6), ("A2", 3), ("A3", 2), ("A4", 1), ("A5", 1), ("A4", 2),
         ("A6", 1)]


@pytest.mark.parametrize("spec, radius", BOXES)
def test_lusztig_q_is_kostka_foulkes_by_charge(spec, radius):
    rs = get_rs(spec)
    for lam in product(range(radius + 1), repeat=rs.rank):
        for mu in rs.dominant_below(lam):
            assert ch.lusztig_q(rs, lam, mu) == kostka_foulkes(lam, mu), \
                (spec, lam, mu)


@settings(max_examples=12, deadline=None)
@given(st.data())
def test_lusztig_q_is_kostka_foulkes_in_rank_7_and_8(data):
    """Sampled pairs in ranks no box above reaches.  lam is a sum of at most
    three distinct fundamental weights, which keeps each pair to at most a
    few hundred tableaux."""
    rs = get_rs(data.draw(st.sampled_from(["A7", "A8"])))
    ones = data.draw(st.sets(st.integers(0, rs.rank - 1), max_size=3))
    lam = tuple(int(i in ones) for i in range(rs.rank))
    mu = data.draw(st.sampled_from(rs.dominant_below(lam)))
    assert ch.lusztig_q(rs, lam, mu) == kostka_foulkes(lam, mu), (lam, mu)
