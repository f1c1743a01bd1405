import itertools
import random
import time
from fractions import Fraction

import pytest

from exotictilt import affweyl as aw, rootdata
from exotictilt.rootdata import (
    RootSystemError, WeylElement, _validate_cartan, build_root_system, closure)

from conftest import get_rs, specs_up_to_rank


# --- oracles ------------------------------------------------------------------


def conv_set(rs, lam):
    """conv(lam) = {mu in lam + Z.Phi : dom(mu) <= dom(lam)}.

    Computed by downward traversal along simple roots; completeness relies
    on saturation of Weyl-module weight sets (cross-checked against a
    geometric hull test in ranks 1-2 below).
    """
    top = rs.dom(lam)
    seen = {top}
    frontier = [top]
    while frontier:
        nxt = []
        for mu in frontier:
            for alpha in rs.simple_roots:
                nu = rs.sub(mu, alpha)
                if nu not in seen and rs.dominance_leq(rs.dom(nu), top):
                    seen.add(nu)
                    nxt.append(nu)
        frontier = nxt
    return sorted(seen)


def weyl_group_oracle(rs):
    """W by a level-by-level traversal from the identity under right
    multiplication by the simple reflections: the order weyl_group keeps."""
    gens = [rs.simple_reflection_matrix(i) for i in range(rs.rank)]
    seen = {rs.identity_matrix}
    order = [WeylElement(rs.identity_matrix, 0)]
    frontier = [rs.identity_matrix]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                prod = rs.mat_mul(m, g)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
                    order.append(WeylElement(prod, rs.weyl_length(prod)))
        frontier = nxt
    return order


def omega_elements_oracle(rs):
    """Omega by a walk over weights, one per class of X / Z.Phi, each class
    taken to the length-0 part of its translation."""
    reps = {aw.coset_class_key(rs, rs.zero()): rs.zero()}
    frontier = [rs.zero()]
    fund = [tuple(int(i == j) for j in range(rs.rank)) for i in range(rs.rank)]
    while frontier:
        nxt = []
        for lam in frontier:
            for f in fund:
                mu = rs.add(lam, f)
                key = aw.coset_class_key(rs, mu)
                if key not in reps:
                    reps[key] = mu
                    nxt.append(mu)
        frontier = nxt
    return {key: aw.reduced_word(rs, aw.t_lambda(rs, lam))[0]
            for key, lam in reps.items()}


def weyl_orbit_oracle(rs, lam):
    """The W-orbit of any weight lam, sorted: the closure of lam under
    every simple reflection that moves a weight, up or down."""
    def reflect(mu):
        for c, alpha in zip(mu, rs.simple_roots):
            if c:
                yield tuple([a - c * r for a, r in zip(mu, alpha)])
    return sorted(closure([lam], reflect))


def conv_interior(rs, lam):
    orbit = set(rs.weyl_orbit(lam))
    return [mu for mu in conv_set(rs, lam) if mu not in orbit]


def test_a1_defining_data(a1):
    assert a1.rank == 1
    assert [r.coords for r in a1.positive_roots] == [(2,)]   # alpha = 2*w
    assert a1.rho == (1,)


def test_a2_positive_roots(a2):
    coords = {r.coords for r in a2.positive_roots}
    assert coords == {(2, -1), (-1, 2), (1, 1)}


def test_unknown_type_and_rank_bound():
    with pytest.raises(RootSystemError):
        build_root_system("Z9")
    with pytest.raises(RootSystemError):
        build_root_system("A9")
    with pytest.raises(RootSystemError):
        build_root_system("A5xA4")
    with pytest.raises(RootSystemError):
        build_root_system("D3")


@pytest.mark.parametrize("spec", ["A²", "A①", "A٣", "B０2", "A1xG²"])
def test_spec_rank_needs_ascii_digits(spec):
    """str.isdigit also holds for superscripts, which int() rejects, and
    for other scripts' digits, which int() reads as ASCII ones."""
    with pytest.raises(RootSystemError, match="unknown root-system spec"):
        build_root_system(spec)


def test_root_systems_equal_by_spec_and_unhashable():
    """Every field of a root system is a function of its canonical spec;
    each instance has its own memo tables, which only grow."""
    a, b = build_root_system("A1 x A2"), build_root_system("a1xa2")
    assert a == b and a is not b and a != build_root_system("A2xA1")
    assert a.memo("t") is not b.memo("t")
    with pytest.raises(TypeError):
        hash(a)


@pytest.mark.parametrize("a", [
    ((2, -2), (-2, 2)),     # affine A1: zero pivot
    ((2, -4), (-1, 2)),     # affine A2(2): zero pivot
    ((2, -3), (-2, 2)),     # hyperbolic: negative pivot
])
def test_validate_cartan_refuses_non_positive_pivots(a):
    with pytest.raises(RootSystemError, match="not positive definite"):
        _validate_cartan(a)


def test_known_counts():
    for spec, npos, nw in [
        ("B2", 4, 8), ("G2", 6, 12), ("A3", 6, 24), ("C3", 9, 48),
        ("D4", 12, 192), ("F4", 24, 1152), ("A1xA1", 2, 4),
    ]:
        rs = get_rs(spec)
        assert len(rs.positive_roots) == npos
        assert len(rs.weyl_group()) == nw


def pair(lam, root):
    """<lam, root_vee> through the coroot functional of a PositiveRoot."""
    return sum(a * b for a, b in zip(root.coroot, lam))


def test_pairing_examples(a1, a2):
    alpha = a1.positive_roots[0]
    assert pair((1,), alpha) == 1
    assert pair((-2,), alpha) == -2
    theta = next(r for r in a2.positive_roots if r.coords == (1, 1))
    assert pair(a2.rho, theta) == 2
    # theta_vee = alpha_vee + beta_vee in A2
    a, b = (r.coroot for r in a2.positive_roots if r.coords != (1, 1))
    assert tuple(x + y for x, y in zip(a, b)) == theta.coroot


def test_coroot_pairing_is_two_on_own_root():
    for spec in ["A2", "B2", "G2", "F4"]:
        rs = get_rs(spec)
        for r in rs.positive_roots:
            assert pair(r.coords, r) == 2


def test_dominant_rep_examples(a1, a2):
    assert a1.dominant_rep((1,))[0] == (1,)
    assert a1.dominant_rep((1,))[2] == 0
    dom, v, delta = a1.dominant_rep((-1,))
    assert dom == (1,) and delta == 1
    dom, v, delta = a2.dominant_rep((-2, 1))     # -alpha
    assert dom == (1, 1) and delta == 2          # theta, via s_beta s_alpha


def test_dominant_rep_minimality_exhaustive():
    for spec in ["A2", "B2", "A1xA1"]:
        rs = get_rs(spec)
        welts = rs.weyl_group()
        for lam in itertools.product(range(-2, 3), repeat=rs.rank):
            dom, v, delta = rs.dominant_rep(lam)
            assert rs.apply(v.matrix, lam) == dom
            assert rs.weyl_length(v.matrix) == delta == rs.delta(lam)
            best = min(
                w.length for w in welts
                if rs.is_dominant(rs.apply(w.matrix, lam))
            )
            assert delta == best


def test_dominance_examples(a1, a2):
    assert a1.dominance_leq((0,), (2,))          # 0 <= alpha
    assert not a1.dominance_leq((0,), (1,))      # w = alpha/2 not in Z.Phi
    assert a2.dominance_leq((-1, -1), (1, 1))    # -theta <= theta


def test_conv_examples(a1, a2):
    assert conv_set(a1, (2,)) == [(-2,), (0,), (2,)]
    assert conv_set(a1, (1,)) == [(-1,), (1,)]
    assert conv_interior(a1, (1,)) == []
    assert conv_set(a2, (0, 0)) == [(0, 0)]
    assert conv_interior(a2, (0, 0)) == []
    assert (0, 0) in conv_interior(a2, (1, 1))


def test_weyl_group_lengths(a1, a2):
    assert sorted(w.length for w in a1.weyl_group()) == [0, 1]
    assert sorted(w.length for w in a2.weyl_group()) == [0, 1, 1, 2, 2, 3]
    assert len(a2.weyl_orbit(a2.rho)) == 6


def test_weyl_length_counts_inversions():
    for spec in ["A2", "B2", "G2"]:
        rs = get_rs(spec)
        pos = {r.coords for r in rs.positive_roots}
        for w in rs.weyl_group():
            inv = sum(
                1 for r in rs.positive_roots
                if rs.apply(w.matrix, r.coords) not in pos
            )
            assert w.length == inv


def test_longest_element():
    for spec in ["A2", "B2", "G2", "A1xA1"]:
        rs = get_rs(spec)
        w0 = rs.longest_element()
        sq = rs.mat_mul(w0.matrix, w0.matrix)
        assert sq == rs.identity_matrix
        for lam in itertools.product(range(3), repeat=rs.rank):
            assert rs.is_dominant(rs.minus_w0(lam))
    specs = specs_up_to_rank(4)
    assert len(specs) == 37
    for spec in specs:
        rs = get_rs(spec)
        assert rs.longest_element() == max(rs.weyl_group(), key=lambda w: w.length), spec


def test_weyl_order_macdonald_formula():
    for spec in ["A1xA1", "A2", "A4", "B3", "C4", "D4", "G2", "F4", "B2xG2"]:
        rs = get_rs(spec)
        assert rs.weyl_order() == len(rs.weyl_group()), spec
    for spec, order in [("E6", 51840), ("E7", 2903040), ("E8", 696729600)]:
        assert build_root_system(spec).weyl_order() == order


def test_weyl_bound(monkeypatch):
    monkeypatch.setattr(rootdata, "WEYL_BOUND", 3)
    with pytest.raises(RootSystemError):
        build_root_system("B2").weyl_group()


def test_weyl_bound_trips_before_enumerating():
    """|W(E7)| = 2903040 exceeds the default bound; Macdonald's formula
    refuses it before a single element is built."""
    rs = build_root_system("E7")
    start = time.perf_counter()
    with pytest.raises(RootSystemError, match="2903040"):
        rs.weyl_group()
    assert time.perf_counter() - start < 1.0
    assert not rs.memo("weyl_group")


def test_dominant_below_matches_conv_set():
    for spec in specs_up_to_rank(3):
        rs = get_rs(spec)
        for lam in itertools.product(range(3), repeat=rs.rank):
            expected = [mu for mu in conv_set(rs, lam) if rs.is_dominant(mu)]
            assert rs.dominant_below(lam) == expected, (spec, lam)
    with pytest.raises(ValueError):
        get_rs("A2").dominant_below((1, -1))


# --- geometric hull oracle (ranks 1 and 2) ---------------------------------


def _in_hull(points, target):
    """Exact convex-hull membership in dimension <= 2."""
    pts = sorted(set(points))
    t = tuple(Fraction(x) for x in target)
    if len(t) == 1:
        xs = [p[0] for p in pts]
        return min(xs) <= t[0] <= max(xs)
    if tuple(map(Fraction, target)) in {tuple(map(Fraction, p)) for p in pts}:
        return True
    for a, b in itertools.combinations(pts, 2):
        cross = (b[0] - a[0]) * (t[1] - a[1]) - (t[0] - a[0]) * (b[1] - a[1])
        if cross == 0:
            dot = (t[0] - a[0]) * (b[0] - a[0]) + (t[1] - a[1]) * (b[1] - a[1])
            sq = (b[0] - a[0]) ** 2 + (b[1] - a[1]) ** 2
            if 0 <= dot <= sq:
                return True
    for a, b, c in itertools.combinations(pts, 3):
        det = (b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1])
        if det == 0:
            continue
        l2 = Fraction((t[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (t[1] - a[1]), det)
        l3 = Fraction((b[0] - a[0]) * (t[1] - a[1]) - (t[0] - a[0]) * (b[1] - a[1]), det)
        if l2 >= 0 and l3 >= 0 and l2 + l3 <= 1:
            return True
    return False


@pytest.mark.parametrize("spec", ["A1", "A2", "B2", "G2", "A1xA1"])
def test_conv_agrees_with_geometric_hull(spec):
    rs = get_rs(spec)
    radius = 4 if rs.rank == 1 else 2
    box = [tuple(c) for c in itertools.product(range(-radius, radius + 1),
                                               repeat=rs.rank)]
    for lam in box:
        orbit = rs.weyl_orbit(lam)
        conv = set(conv_set(rs, lam))
        for mu in box:
            in_lattice = rs.root_coords_int(rs.sub(mu, lam)) is not None
            expected = in_lattice and _in_hull(orbit, mu)
            assert (mu in conv) == expected, (spec, lam, mu)


# --- the breadth-first closure -------------------------------------------------


def test_closure_lists_each_item_once_breadth_first():
    # 0 -> 1, 2; 1 -> 3; 2 -> 3, 0; 3 -> 4: levels {0}, {1, 2}, {3}, {4}
    edges = {0: [1, 2], 1: [3], 2: [3, 0], 3: [4], 4: []}
    assert list(closure([0], edges.__getitem__)) == [0, 1, 2, 3, 4]
    assert list(closure([3, 0], edges.__getitem__)) == [3, 0, 4, 1, 2]


def test_closure_keeps_the_first_of_duplicate_starts():
    assert list(closure([2, 1, 2, 1], lambda x: [x - 1] if x > 0 else [])) \
        == [2, 1, 0]
    out = list(closure([1, 1.0, True], lambda x: []))
    assert out == [1] and type(out[0]) is int
    assert list(closure([], lambda x: [x])) == []


def test_closure_stops_when_the_caller_does():
    """An item is yielded before its moves are asked for, so taking n items
    of an endless walk asks for n - 1 moves."""
    asked = []

    def moves(x):
        asked.append(x)
        return [x + 1, x + 2]
    assert list(itertools.islice(closure([0], moves), 4)) == [0, 1, 2, 3]
    assert asked == [0, 1, 2]


WALK_SPECS = ["A1", "A2", "A3", "B2", "C3", "D4", "G2", "A1xA2", "B3xC2"]


@pytest.mark.parametrize("spec", WALK_SPECS)
def test_weyl_group_matches_the_traversal_oracle_in_order(spec):
    rs = build_root_system(spec)
    assert rs.weyl_group() == weyl_group_oracle(rs)


@pytest.mark.parametrize("spec", WALK_SPECS)
def test_omega_elements_match_the_weight_walk_oracle_in_order(spec):
    rs = build_root_system(spec)
    new, old = aw.omega_elements(rs), omega_elements_oracle(rs)
    assert list(new.items()) == list(old.items())
    assert all(aw.aff_length(rs, om) == 0 for om in new.values())


@pytest.mark.parametrize("spec", [
    "A1", "A2", "A3", "B2", "C3", "G2", "D4", "A1xA2"])
def test_delta_root_count_matches_the_reflection_walk(spec):
    rs = build_root_system(spec)
    for lam in itertools.product(range(-3, 4), repeat=rs.rank):
        assert rs.delta(lam) == rs.dominant_rep(lam)[2], lam


def test_delta_root_count_matches_the_reflection_walk_in_e8():
    rs = build_root_system("E8")
    rng = random.Random(0)
    for _ in range(200):
        lam = tuple(rng.randint(-4, 4) for _ in range(rs.rank))
        assert rs.delta(lam) == rs.dominant_rep(lam)[2], lam


ORBIT_BOXES = {"A1": 3, "A2": 3, "A3": 2, "B2": 3, "C3": 2, "G2": 3,
               "D4": 1, "A1xA2": 2, "F4": 1}


@pytest.mark.parametrize("spec, radius", ORBIT_BOXES.items())
def test_orbit_levels_match_the_closure_orbit_and_delta(spec, radius):
    rs = build_root_system(spec)
    for lam in itertools.product(range(-radius, radius + 1), repeat=rs.rank):
        orbit = weyl_orbit_oracle(rs, lam)
        assert rs.weyl_orbit(lam) == orbit, lam
        if rs.is_dominant(lam):
            levels = rs.orbit_levels(lam)
            assert sorted(levels) == orbit, lam
            assert all(k == rs.delta(mu) for mu, k in levels.items()), lam


def test_orbit_levels_refuses_a_non_dominant_start(a2):
    with pytest.raises(ValueError):
        a2.orbit_levels((1, -1))
    assert a2.orbit_levels((0, 0)) == {(0, 0): 0}
