import pytest

from exotictilt import KClass, build_root_system, cli, verify

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
    rs.memo("line_bundle")[(1,)] = KClass.basis((0,))
    reports = verify.run_suites(rs, "anchors", radius=2)
    failed = [r for r in reports if not r.passed]
    assert [r.name.split("[")[0] for r in failed] == ["line-bundle-anchors"]
    assert "lam=(1,)" in failed[0].failures[0]

    monkeypatch.setattr(cli, "build_root_system", lambda spec: rs)
    assert cli.run(["verify", "A1", "--suite", "anchors"]) == 1
    assert "line-bundle-anchors[A1, radius 2]: FAIL" in capsys.readouterr().out
