"""The memo contract of rootdata.memoized: one table per function and root
system, keyed by the argument (or the tuple of arguments), filled on the
first call and returning the stored object afterwards."""

import pytest

from exotictilt import affweyl as aw, charring, exotic_k as ek, heckebraid as hb
from exotictilt.rootdata import build_root_system

X = aw.AffineElement(((0, 1), (-1, 1)), (2, -1))

# table name -> (call on a root system, key of its entry)
CALLS = {
    "dominant_rep": (lambda rs: rs.dominant_rep((-1, 2)), (-1, 2)),
    "weyl_group": (lambda rs: rs.weyl_group(), ()),
    "longest": (lambda rs: rs.longest_element(), ()),
    "aff_length": (lambda rs: aw.aff_length(rs, X), X),
    "gen_roots": (lambda rs: aw.gen_roots(rs), ()),
    "gens": (lambda rs: aw.simple_generators(rs), ()),
    "reduced_word": (lambda rs: aw.reduced_word(rs, X), X),
    "omega_elements": (lambda rs: aw.omega_elements(rs), ()),
    "w_lambda": (lambda rs: aw.w_lambda(rs, (1, -2)), (1, -2)),
    "theta": (lambda rs: hb.theta(rs, (1, -1)), (1, -1)),
    "k_gen_action": (lambda rs: ek._basis_gen_action(rs, (1, -2), 2, 1),
                     ((1, -2), 2, 1)),
    "delta_class": (lambda rs: ek.delta_class(rs, (-1, 1)), (-1, 1)),
    "line_bundle": (lambda rs: ek._line_bundles(rs, [(1, -2)])[(1, -2)],
                    (1, -2)),
    "kostant": (lambda rs: charring.kostant_partition(rs, (2, 2)), (2, 2)),
    "freudenthal": (lambda rs: charring._dominant_mult_table(rs, (2, 1)),
                    (2, 1)),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_first_call_fills_the_table_and_later_calls_return_it(name):
    call, key = CALLS[name]
    rs = build_root_system("A2")
    res = call(rs)
    assert rs.memo(name)[key] is res
    assert call(rs) is res


def test_root_systems_of_one_spec_share_no_entries():
    first, second = build_root_system("A2"), build_root_system("A2")
    results = {name: call(first) for name, (call, _) in CALLS.items()}
    for name in CALLS:
        assert not second.memo(name), name
    for name, (call, _) in CALLS.items():
        assert call(second) == results[name], name
        assert second.memo(name) is not first.memo(name)


@pytest.mark.parametrize("fn,name", [
    (charring.kostant_partition, "kostant"),
    (charring._dominant_mult_table, "freudenthal"),
])
def test_a_list_argument_is_keyed_as_a_tuple(fn, name):
    rs = build_root_system("A2")
    res = fn(rs, [1, 1])
    assert res and list(rs.memo(name)) == [(1, 1)]
    assert fn(rs, (1, 1)) is res
    assert fn(rs, [1, 1]) is res
