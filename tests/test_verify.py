import re

import pytest

from exotictilt import (
    KClass, affweyl, build_root_system, cli, exotic_k, rootdata, verify,
)
from exotictilt.laurent import VINV_MINUS_V

from conftest import get_rs


@pytest.mark.parametrize("spec", ["A1", "A2"])
def test_all_suites_pass(spec):
    reports = verify.run_suites(get_rs(spec), "all", radius=2, seed=5)
    for rep in reports:
        assert rep.passed, rep.summary()


def test_single_suite_selection(b2):
    reports = verify.run_suites(b2, "order", radius=2)
    names = {r.name.split("[")[0] for r in reports}
    assert names == {"length-invariants", "order-vs-dominance", "omega-group"}
    assert all(r.passed for r in reports)


def test_module_suite_deterministic_per_seed(a2):
    a = verify.run_suites(a2, "module", radius=2, seed=11)
    b = verify.run_suites(a2, "module", radius=2, seed=11)
    assert [(r.name, r.checked) for r in a] == [(r.name, r.checked) for r in b]
    assert all(r.passed for r in a)


def test_unknown_suite_rejected(a1):
    with pytest.raises(ValueError):
        verify.run_suites(a1, "nope", radius=1)


def test_budgets_bound_each_suite():
    """The box bound applies to every suite and the comparison bound only
    where the order suite runs; both refuse before any suite starts."""
    a3 = get_rs("A3")
    for which in ("order", "all"):
        with pytest.raises(ValueError, match="makes 4751758345 comparisons"):
            verify.run_suites(a3, which, radius=20)
    with pytest.raises(ValueError, match="holds 390625 weights"):
        verify.run_suites(build_root_system("A8"), "module", radius=2)
    with pytest.raises(ValueError, match="makes 6052921 comparisons"):
        verify.run_suites(get_rs("A4"), "order", radius=3)


def _no_suite_runs(monkeypatch):
    def ran(rs, radius, seed=0):
        raise AssertionError("a suite ran before the budgets refused")
    for name in verify.SUITES:
        monkeypatch.setitem(verify.SUITES, name, ran)


@pytest.mark.parametrize("row", range(len(verify.BUDGETS)),
                         ids=lambda i: verify.BUDGETS[i].suite or "box")
def test_every_budget_row_refuses_before_any_suite_runs(monkeypatch, row):
    """Each row, its bound lowered to 0, refuses a small run of every suite
    with its own text, and no suite starts."""
    budgets = list(verify.BUDGETS)
    budget = budgets[row]
    budgets[row] = budget._replace(bound=0)
    monkeypatch.setattr(verify, "BUDGETS", budgets)
    _no_suite_runs(monkeypatch)
    rs = get_rs("A2")
    text = budget.refusal(rs, 1, budget.estimate(rs, 1))
    with pytest.raises(ValueError,
                       match=f"^{re.escape(text)}, above the bound 0$"):
        verify.run_suites(rs, "all", 1)


def test_budget_rows_are_checked_in_order(monkeypatch):
    """A3 at radius 20 passes the box row, and the order row refuses it
    before the bernstein rows, which would refuse it too, compute a
    theta."""
    assert [b.suite for b in verify.BUDGETS] == [
        None, "order", "bernstein", "bernstein", "module", "anchors"]
    _no_suite_runs(monkeypatch)
    rs = build_root_system("A3")
    with pytest.raises(ValueError, match="^the order suite .* makes "
                                         "4751758345 comparisons"):
        verify.run_suites(rs, "all", 20)
    assert not rs.memo("theta")
    with pytest.raises(ValueError, match="^the bernstein suite"):
        verify.run_suites(rs, "bernstein", 20)


@pytest.mark.parametrize("spec", ["A1", "A2", "B2"])
def test_anchors_suite_passes(spec):
    reports = verify.run_suites(get_rs(spec), "anchors", radius=2)
    names = [r.name.split("[")[0] for r in reports]
    assert names == ["gen-action-cases", "w-lambda-minimal",
                     "line-bundle-anchors", "tilting-tensor-oracle"]
    for rep in reports:
        assert rep.passed and rep.checked, rep.summary()


def test_anchors_suite_reports_a_rigged_line_bundle(capsys, monkeypatch):
    rs = build_root_system("A1")
    line_bundle_class = exotic_k.line_bundle_class
    monkeypatch.setattr(exotic_k, "line_bundle_class", lambda rs, lam: (
        KClass.basis((0,)) if lam == (1,) else line_bundle_class(rs, lam)))
    reports = verify.run_suites(rs, "anchors", radius=2)
    failed = [r for r in reports if not r.passed]
    assert [r.name.split("[")[0] for r in failed] == ["line-bundle-anchors"]
    assert "lam=(1,)" in failed[0].failures[0]

    monkeypatch.setattr(cli, "build_root_system", lambda spec: rs)
    assert cli.run(["verify", "A1", "--suite", "anchors"]) == 1
    assert "line-bundle-anchors[A1, radius 2]: FAIL" in capsys.readouterr().out


def test_module_suite_reports_a_rigged_reflection_step(capsys, monkeypatch):
    """A wrong sign in the line-bundle reflection step fails only the
    line-bundle-recursion report, and the CLI exits 1."""
    monkeypatch.setattr(exotic_k, "V_MINUS_VINV", VINV_MINUS_V)
    reports = verify.run_suites(build_root_system("A2"), "module", radius=2)
    failed = [r for r in reports if not r.passed]
    assert [r.name for r in failed] == ["line-bundle-recursion[A2, radius 2]"]
    assert failed[0].checked == 25 and "lam=(" in failed[0].failures[0]

    monkeypatch.setattr(cli, "build_root_system", build_root_system)
    assert cli.run(["verify", "A2", "--suite", "module"]) == 1
    assert "line-bundle-recursion[A2, radius 2]: FAIL" in \
        capsys.readouterr().out


@pytest.mark.parametrize("spec,radius", [("A3", 2), ("B3", 1), ("C3", 1)])
def test_order_suite_passes_in_rank_3(spec, radius):
    for rep in verify.run_suites(get_rs(spec), "order", radius=radius):
        assert rep.passed, rep.summary()


def test_reflection_closure_is_not_dominance():
    """In A3, mu - lam = alpha_1 + alpha_3 >= 0 on one orbit, but no
    reflection step joins lam to mu, and lam is not below mu."""
    a3 = get_rs("A3")
    lam, mu = (-2, 1, 0), (0, -1, 2)
    assert a3.dominance_leq(lam, mu) and a3.dom(lam) == a3.dom(mu)
    above = verify.reflection_closure(a3, lam)
    assert mu not in above and a3.dom(lam) in above
    assert not affweyl.order_leq_weights(a3, lam, mu)
    antidominant = (-1, 0, -1)
    assert verify.reflection_closure(a3, antidominant) == \
        set(a3.weyl_orbit(antidominant))


def test_order_suite_reports_dominance_on_an_orbit(monkeypatch):
    """An order that were dominance on each W-orbit fails the reflection
    closure check."""
    a3 = get_rs("A3")
    real = affweyl.order_leq_weights

    def rigged(rs, lam, mu):
        if rs.dom(lam) == rs.dom(mu):
            return rs.dominance_leq(lam, mu)
        return real(rs, lam, mu)
    monkeypatch.setattr(affweyl, "order_leq_weights", rigged)
    reports = verify.run_suites(a3, "order", radius=2)
    failed = [r for r in reports if not r.passed]
    assert [r.name.split("[")[0] for r in failed] == ["order-vs-dominance"]
    assert all("reflection-closure" in f for f in failed[0].failures)


def test_bernstein_budget():
    """The estimate of relation (2), exact within the bound; A3 at radius 2
    (19468500) is refused after a few thetas, B3 at once."""
    assert verify._bernstein_work(get_rs("B2"), 2) == 115290
    assert verify._bernstein_work(get_rs("A3"), 1) == 82800
    for spec in ("A3", "B3"):
        with pytest.raises(ValueError, match="above the bound 200000"):
            verify.run_suites(get_rs(spec), "bernstein", radius=2)


def test_weyl_bound_is_read_when_the_budget_is_checked(monkeypatch):
    """The Weyl-group bound of rootdata, lowered after import, refuses the
    bernstein suite before any theta is computed."""
    monkeypatch.setattr(rootdata, "WEYL_BOUND", 3)
    rs = build_root_system("A2")
    with pytest.raises(rootdata.RootSystemError, match="bound 3"):
        verify.run_suites(rs, "bernstein", radius=1)
    assert not rs.memo("theta")


def test_bernstein_pair_budget():
    """Relation (1) admits |W|^2 = 147456 pairs for B4 and refuses F4's
    1327104 before W is enumerated."""
    verify._check_budget(get_rs("B4"), ["bernstein"], 0)
    rs = build_root_system("F4")
    with pytest.raises(ValueError, match="1327104 pairs"):
        verify._check_budget(rs, ["bernstein"], 0)
    assert not rs.memo("weyl_group")


def test_module_budget():
    """The module suite's estimate admits the default radius up to rank 3
    and refuses D4 at radius 2, which ran for 36 to 52 seconds at some
    560 MB, before any class is built."""
    for spec in ("A2", "B2", "G2", "A3", "B3", "C3"):
        assert verify._module_work(get_rs(spec), 2) <= verify.MODULE_BOUND
    rs = build_root_system("D4")
    assert verify._module_work(rs, 1) <= verify.MODULE_BOUND
    with pytest.raises(ValueError, match="module suite .* above the bound"):
        verify.run_suites(rs, "module", radius=2)
    for table in ("delta_class", "line_bundle", "k_gen_action"):
        assert not rs.memo(table), table


def test_anchors_budget():
    """The anchors suite's estimate admits the default radius up to rank 3
    and D4 at radius 1, and refuses D4 and A4 at radius 2, A2 at radius 20
    and G2 at radius 10 (103, 18, 28 and 52 seconds) before any class is
    built."""
    rs = get_rs("A2")   # M(lam) over A2's dominant box of radius 2: 69 weights
    assert verify._anchors_work(rs, 3) == 69 + 2 * sum(
        affweyl.aff_length(rs, affweyl.t_lambda(rs, lam))
        for lam in affweyl.weight_box(rs, 3) if max(lam) <= 0)
    admitted = [(spec, 2) for spec in ("A1", "A2", "B2", "G2", "A3", "B3",
                                       "C3")]
    for spec, radius in admitted + [("D4", 1), ("A2", 12), ("G2", 7)]:
        assert verify._anchors_work(get_rs(spec), radius) \
            <= verify.ANCHORS_BOUND, spec
    for spec, radius in (("D4", 2), ("A4", 2), ("A2", 20), ("G2", 10)):
        rs = build_root_system(spec)
        with pytest.raises(ValueError,
                           match="anchors suite .* above the bound"):
            verify.run_suites(rs, "anchors", radius=radius)
        for table in ("delta_class", "k_gen_action", "kostant_table",
                      "w_lambda"):
            assert not rs.memo(table), (spec, table)
