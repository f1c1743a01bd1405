import io
import json
import resource
import time

import pytest

from conftest import run_cli_process
from exotictilt import affweyl, build_root_system, cli


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


def test_rootinfo(capsys):
    code, out, _ = run_cli(capsys, "rootinfo", "A2")
    assert code == 0
    assert "rank 2" in out and "|W| = 6" in out and "|Omega| = 3" in out


def test_rootinfo_omega_order_counts_the_omega_group(capsys):
    for spec in ("A3", "D4", "E7", "A1xA1xA1", "B3xC2"):
        code, out, _ = run_cli(capsys, "rootinfo", spec, "--json")
        assert code == 0
        rs = build_root_system(spec)
        assert json.loads(out)["omega_order"] == len(affweyl.omega_elements(rs))


def test_unknown_spec_exits_2(capsys):
    code, _, err = run_cli(capsys, "rootinfo", "Z9")
    assert code == 2 and "unknown" in err


def test_length_and_reduced(capsys):
    code, out, _ = run_cli(capsys, "length", "A1", "t[1]")
    assert (code, out) == (0, "1")
    code, out, _ = run_cli(capsys, "reduced", "A1", "t[2]")
    assert code == 0 and out == "s0 s1"
    code, out, _ = run_cli(capsys, "length", "A2", "s1 s2*t[1,0]")
    assert code == 0


def test_wlambda_example(capsys):
    code, out, _ = run_cli(capsys, "wlambda", "A1", "[-1]")
    assert code == 0
    assert out == "w_lambda = o[-1], delta = 1"


def test_bruhat(capsys):
    code, out, _ = run_cli(capsys, "bruhat", "A1", "e", "s1")
    assert (code, out) == (0, "true")
    code, out, _ = run_cli(capsys, "bruhat", "A1", "s1", "t[1]")
    assert (code, out) == (0, "false")


def test_bruhat_of_long_elements(capsys):
    """The Bruhat walk takes one step per unit of length: 4000 steps here,
    more than the interpreter's recursion limit."""
    code, out, err = run_cli(capsys, "bruhat", "A1", "t[3000]", "t[4000]")
    assert (code, out, err) == (0, "true", "")
    code, out, err = run_cli(capsys, "bruhat", "A1", "t[4000]", "t[3000]")
    assert (code, out, err) == (0, "false", "")


def test_hecke_mul_quadratic(capsys):
    code, out, _ = run_cli(capsys, "hecke-mul", "A1", "s1", "s1")
    assert code == 0
    assert out == "T[e] + (-v + v^-1)*T[s1]"


def test_theta_text(capsys):
    code, out, _ = run_cli(capsys, "theta", "A1", "[-1]")
    assert code == 0
    assert out == "(v - v^-1)*T[o[-1]] + T[o[-1] s0]"


def test_kclass_bs_example(capsys):
    code, out, _ = run_cli(capsys, "kclass", "bs", "A1", "omega", "s1")
    assert code == 0
    assert out == "m[1] + v*m[-1]"


def test_kclass_line_delta(capsys):
    code, out, _ = run_cli(capsys, "kclass", "line", "A1", "[-2]")
    assert code == 0 and out == "(v^2 - 1)*m[0] + v*m[-2]"
    code, out, _ = run_cli(capsys, "kclass", "delta", "A1", "[-2]")
    assert code == 0 and out == "(v - v^-1)*m[0] + m[-2]"


def test_qanalogue_and_gamma(capsys):
    code, out, _ = run_cli(capsys, "qanalogue", "A2", "[1,1]", "[0,0]")
    assert (code, out) == (0, "v^2 + v")
    code, out, _ = run_cli(capsys, "gamma", "A1", "[0]", "[2]")
    assert (code, out) == (0, "v^2")


def test_tilt_commands(tmp_path, capsys):
    char = {"basis": "good", "mults": [{"weight": [1], "count": 1}]}
    path = tmp_path / "char.json"
    path.write_text(json.dumps(char))
    code, out, _ = run_cli(capsys, "tilt", "costd", "A1", str(path), "[-1]")
    assert (code, out) == (0, "v")
    code, out, _ = run_cli(capsys, "tilt", "dominant", "A1", "[1]")
    assert (code, out) == (0, "m[1] + v*m[-1]")
    wchar = {"basis": "Weyl", "mults": [{"weight": [1], "count": 1}]}
    wpath = tmp_path / "wchar.json"
    wpath.write_text(json.dumps(wchar))
    code, out, _ = run_cli(capsys, "tilt", "std", "A1", str(wpath), "[-1]")
    assert (code, out) == (0, "v^-1")
    code, out, _ = run_cli(
        capsys, "tilt", "dominant", "A1", "[1]", "--tilt-char", str(wpath))
    assert (code, out) == (0, "m[1] + v*m[-1]")


def test_tilt_char_of_another_highest_weight_exits_2(tmp_path, capsys):
    char = {"basis": "Weyl", "mults": [{"weight": [1, 0], "count": 1}]}
    path = tmp_path / "char.json"
    path.write_text(json.dumps(char))
    code, out, err = run_cli(
        capsys, "tilt", "dominant", "A2", "[5,5]", "--tilt-char", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and len(err.splitlines()) == 1
    code, out, _ = run_cli(
        capsys, "tilt", "dominant", "A2", "[1,0]", "--tilt-char", str(path))
    assert (code, out) == (0, "m[1,0] + v^2*m[0,-1] + v*m[-1,1]")


def test_tilt_wrong_basis_exits_2(tmp_path, capsys):
    char = {"basis": "good", "mults": [{"weight": [1], "count": 1}]}
    path = tmp_path / "char.json"
    path.write_text(json.dumps(char))
    code, _, err = run_cli(capsys, "tilt", "std", "A1", str(path), "[1]")
    assert code == 2 and "Weyl" in err


def test_reconcile(tmp_path, capsys):
    char = {"basis": "good", "mults": [{"weight": [1, 1], "count": 1}]}
    path = tmp_path / "char.json"
    path.write_text(json.dumps(char))
    code, out, _ = run_cli(capsys, "reconcile", "A2", str(path))
    assert (code, out) == (0, "match")


def test_verify_exit_codes(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "verify", "A1", "--suite", "order",
                           "--radius", "2")
    assert code == 0 and "pass" in out
    from exotictilt.verify import Report

    def failing(rs, which, radius, seed=0):
        rep = Report("rigged")
        rep.check(False, "counterexample lam=(1,)")
        return [rep]

    monkeypatch.setattr(cli.verify, "run_suites", failing)
    code, out, _ = run_cli(capsys, "verify", "A1")
    assert code == 1 and "counterexample" in out


def test_json_roundtrip(capsys):
    """Parsing emitted JSON and recomputing yields byte-identical documents."""
    cases = [
        ("kclass", "bs", "A2", "o[1,0]", "s1", "s2"),
        ("theta", "A2", "[-1,1]"),
        ("qanalogue", "B2", "[1,1]", "[0,0]"),
        ("rootinfo", "G2"),
    ]
    for argv in cases:
        code, out1, _ = run_cli(capsys, *argv, "--json")
        assert code == 0
        json.loads(out1)
        code, out2, _ = run_cli(capsys, *argv, "--json")
        assert out1 == out2


def test_cache_warm_and_cold_identical(tmp_path, capsys):
    cache = tmp_path / "cache.json"
    argv = ("qanalogue", "B2", "[2,2]", "[0,0]", "--cache", str(cache))
    code, cold, _ = run_cli(capsys, *argv)
    assert code == 0 and cache.exists()
    doc = json.loads(cache.read_text())
    assert doc["version"] == cli.CACHE_VERSION and doc["kostant"]["B2"]
    code, warm, _ = run_cli(capsys, *argv)
    assert (code, warm) == (0, cold)
    code, plain, _ = run_cli(capsys, *argv[:-2])
    assert plain == cold


def test_cache_version_mismatch_ignored(tmp_path, capsys):
    cache = tmp_path / "cache.json"
    cache.write_text(json.dumps(
        {"version": 999, "kostant": {"A1": {"2": [[5, 7]]}}}))
    code, out, _ = run_cli(capsys, "qanalogue", "A1", "[2]", "[0]",
                           "--cache", str(cache))
    assert (code, out) == (0, "v")


def test_parse_errors_exit_2(capsys):
    code, _, err = run_cli(capsys, "length", "A1", "q9")
    assert code == 2 and "token" in err
    code, _, err = run_cli(capsys, "wlambda", "A1", "[1,2]")
    assert code == 2
    code, _, err = run_cli(capsys, "kclass", "bs", "A2", "s1")
    assert code == 2    # s1 is not a length-0 element


def test_console_script_installed():
    proc = run_cli_process("kclass", "bs", "A1", "omega", "s1")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "m[1] + v*m[-1]"


def test_bott_samelson_with_a_huge_omega_weight():
    """o[...] is reduced mod det A before its length-0 part is taken."""
    proc = run_cli_process("kclass", "bs", "A2", "o[1000000000,0]", "s1",
                           timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "(v + v^-1)*m[0,-1]"


def test_rootinfo_e8_closed_form():
    """|W(E8)| comes from Macdonald's formula, not from enumerating W."""
    proc = run_cli_process("rootinfo", "E8", "--json", timeout=30)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["weyl_order"] == 696729600


def _tilt_std_a2(tmp_path, capsys, mults):
    path = tmp_path / "char.json"
    path.write_text(json.dumps({"basis": "Weyl", "mults": mults}))
    return run_cli(capsys, "tilt", "std", "A2", str(path), "[0,0]")


def test_character_record_without_weight_exits_2(tmp_path, capsys):
    code, _, err = _tilt_std_a2(tmp_path, capsys, [{"count": 1}])
    assert code == 2 and "weight" in err


def test_character_fractional_weight_exits_2(tmp_path, capsys):
    code, _, err = _tilt_std_a2(tmp_path, capsys,
                                [{"weight": [1.5, 0], "count": 1}])
    assert code == 2 and "integers" in err


def test_character_bool_weight_exits_2(tmp_path, capsys):
    code, _, err = _tilt_std_a2(tmp_path, capsys,
                                [{"weight": [True, 0], "count": 1}])
    assert code == 2 and "integers" in err


def test_character_bad_count_exits_2(tmp_path, capsys):
    for count in (True, 1.5, "1", None):
        code, _, err = _tilt_std_a2(tmp_path, capsys,
                                    [{"weight": [1, 1], "count": count}])
        assert code == 2 and "count" in err, count


def test_character_mults_not_a_list_exits_2(tmp_path, capsys):
    code, _, err = _tilt_std_a2(tmp_path, capsys,
                                {"weight": [1, 1], "count": 1})
    assert code == 2 and "list" in err
    code, _, err = _tilt_std_a2(tmp_path, capsys, [[1, 1]])
    assert code == 2 and "record" in err


def test_parse_weight_rejects_bools(capsys):
    code, _, err = run_cli(capsys, "qanalogue", "A2", "[true,0]", "[0,0]")
    assert code == 2 and "integers" in err


def test_qanalogue_non_dominant_lam(capsys):
    """The W-sum is defined for every lam: singular lam + rho gives 0, and a
    regular non-dominant one the signed sum from its dominant representative."""
    code, out, _ = run_cli(capsys, "qanalogue", "A1", "[-1]", "[-1]")
    assert (code, out) == (0, "0")
    code, out, _ = run_cli(capsys, "qanalogue", "A1", "[-2]", "[-2]")
    assert (code, out) == (0, "-v + 1")


def test_cache_not_rewritten_when_unchanged(tmp_path, capsys):
    cache = tmp_path / "cache.json"
    argv = ("qanalogue", "B2", "[2,2]", "[0,0]", "--cache", str(cache))
    code, first, _ = run_cli(capsys, *argv)
    assert code == 0
    before = (cache.read_bytes(), cache.stat().st_mtime_ns)
    code, again, _ = run_cli(capsys, *argv)
    assert (code, again) == (0, first)
    assert (cache.read_bytes(), cache.stat().st_mtime_ns) == before
    assert [p.name for p in tmp_path.iterdir()] == ["cache.json"]


def test_cache_malformed_entries_ignored(tmp_path, capsys):
    argv = ("qanalogue", "B2", "[2,2]", "[0,0]")
    code, cold, _ = run_cli(capsys, *argv)
    assert code == 0
    cache = tmp_path / "cache.json"
    run_cli(capsys, *argv, "--cache", str(cache))
    doc = json.loads(cache.read_text())
    needed = sorted(doc["kostant"]["B2"])
    assert needed
    for bad in ([[True, 1]], [[1.5, 1]], [[1, 2, 3]], "v", [[1, None]], [5]):
        table = {key: bad for key in needed}
        table.update({"x,1": [[0, 1]], "1": [[0, 1]]})
        doc["kostant"]["B2"] = table
        cache.write_text(json.dumps(doc))
        code, warm, _ = run_cli(capsys, *argv, "--cache", str(cache))
        assert (code, warm) == (0, cold), bad


def test_cache_with_malformed_sections_ignored(tmp_path, capsys):
    cache = tmp_path / "cache.json"
    for doc in ({"version": cli.CACHE_VERSION, "kostant": []},
                {"version": cli.CACHE_VERSION, "kostant": {"A1": [1]}},
                [1, 2]):
        cache.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "qanalogue", "A1", "[2]", "[0]",
                               "--cache", str(cache))
        assert (code, out) == (0, "v")
        assert json.loads(cache.read_text())["kostant"]["A1"]


def test_cache_bytes_match_streaming_encoder(tmp_path, capsys):
    """The cache is written with json.dumps; its bytes are what the
    streaming json.dump writes for the same document."""
    cache = tmp_path / "cache.json"
    for argv in (("qanalogue", "B2", "[2,2]", "[0,0]"),
                 ("qanalogue", "A1", "[4]", "[0]"),
                 ("qanalogue", "A2", "[2,2]", "[0,0]")):
        code, _, _ = run_cli(capsys, *argv, "--cache", str(cache))
        assert code == 0, argv
        text = cache.read_text()
        doc = json.loads(text)
        assert text == json.dumps(doc, sort_keys=True)
        streamed = io.StringIO()
        json.dump(doc, streamed, sort_keys=True)
        assert text == streamed.getvalue()
    assert sorted(doc["kostant"]) == ["A1", "A2", "B2"]


def _cache_cli(cache):
    return run_cli_process("qanalogue", "A1", "[2]", "[0]",
                           "--cache", str(cache), timeout=30)


@pytest.mark.parametrize("content", [
    b"\xff\xfe{}",                                         # not UTF-8
    b'{"version": 1, "n": ' + b"9" * 5000 + b"}",          # int-digit limit
    b"[" * 100000 + b"]" * 100000,                         # nesting depth
], ids=["non-utf8", "long-int", "deep"])
def test_undecodable_cache_ignored(tmp_path, content):
    cache = tmp_path / "cache.json"
    cache.write_bytes(content)
    proc = _cache_cli(cache)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "v\n", "")
    assert json.loads(cache.read_text())["kostant"]["A1"]


@pytest.mark.parametrize("case", ["under-a-file", "directory"])
def test_unwritable_cache_exits_2(tmp_path, case):
    (tmp_path / "plain").write_text("x")
    (tmp_path / "dir").mkdir()
    cache = tmp_path / ("plain/cache.json" if case == "under-a-file" else "dir")
    proc = _cache_cli(cache)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot write cache file")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "plain"]
    assert list((tmp_path / "dir").iterdir()) == []


def test_deeply_nested_character_file_exits_2(tmp_path, capsys):
    path = tmp_path / "char.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, _, err = run_cli(capsys, "tilt", "std", "A1", str(path), "[0]")
    assert code == 2 and err.startswith("error: cannot read character file")


def test_deeply_nested_weight_literal_exits_2(capsys):
    nested = "[" * 3000 + "]" * 3000
    for argv in (("qanalogue", "A1", nested, "[0]"),
                 ("length", "A1", "t" + nested)):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and err.startswith("error: bad weight literal"), argv
        assert len(err.splitlines()) == 1 and len(err) < 200, argv


def test_long_inputs_give_short_error_lines(tmp_path, capsys):
    path = tmp_path / "char.json"
    path.write_text(json.dumps({"basis": "Weyl", "mults": [
        {"weight": [0] * 5000, "count": 1}]}))
    basis = tmp_path / "basis.json"
    basis.write_text(json.dumps({"basis": "x" * 5000, "mults": []}))
    for argv in (("length", "A1", "q" * 5000),
                 ("length", "A1", "s" * 5000),
                 ("length", "A1", "s1" + "0" * 5000),
                 ("wlambda", "A1", json.dumps([0] * 5000)),
                 ("kclass", "bs", "A2", "s1" * 5000),
                 ("tilt", "std", "A1", str(path), "[0]"),
                 ("tilt", "std", "A1", str(basis), "[0]")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error:"), argv[:2]
        assert len(err.splitlines()) == 1 and len(err) < 200, argv[:2]


@pytest.mark.parametrize("kind", ["line", "delta", "nabla"])
def test_kclass_extra_weight_exits_2(capsys, kind):
    code, out, err = run_cli(capsys, "kclass", kind, "A2", "[1,0]", "[0,1]")
    assert code == 2 and out == "" and err.startswith("error:")
    assert len(err.splitlines()) == 1


def test_parser_state_does_not_leak_between_runs(capsys):
    code, out, _ = run_cli(capsys, "qanalogue", "A2", "[1,1]", "[0,0]",
                           "--json", "--seed", "3")
    assert (code, json.loads(out)) == (0, [[1, 1], [2, 1]])
    code, out, _ = run_cli(capsys, "qanalogue", "A2", "[1,1]", "[0,0]")
    assert (code, out) == (0, "v^2 + v")
    assert cli.build_parser() is cli.build_parser()


def test_tilt_arity_errors_exit_2(tmp_path, capsys):
    path = tmp_path / "char.json"
    path.write_text(json.dumps(
        {"basis": "Weyl", "mults": [{"weight": [1], "count": 1}]}))
    for argv in (("tilt", "std", "A1", str(path)),
                 ("tilt", "dominant", "A1"),
                 ("tilt", "dominant", "A1", "[1]", "[2]")):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and "usage" in err and "Traceback" not in err, argv


def test_verify_negative_radius_exits_2(capsys):
    for radius in ("-1", "x"):
        code, out, err = run_cli(capsys, "verify", "A2", "--radius", radius,
                                 "--suite", "order")
        assert code == 2 and out == "", radius
        assert "--radius" in err and "Traceback" not in err, radius


def test_verify_huge_weyl_group_exits_2_quickly():
    """E7's Weyl group exceeds the enumeration bound; the check trips on
    Macdonald's formula before anything is enumerated."""
    proc = run_cli_process("verify", "E7", "--suite", "bernstein",
                           timeout=10)
    assert proc.returncode == 2
    assert "larger than bound" in proc.stderr
    assert "Traceback" not in proc.stderr


CHILD_ADDRESS_SPACE = 512 << 20


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS,
                       (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))


def _timed_cli(*argv, timeout):
    """Run the CLI in a child process whose address space is capped at
    512 MB, so a command that allocates far more fails with a traceback
    instead of loading the host."""
    start = time.perf_counter()
    proc = run_cli_process(*argv, timeout=timeout,
                           preexec_fn=_cap_address_space)
    return proc, time.perf_counter() - start


def test_qanalogue_over_kostant_bound_exits_2_quickly():
    """E6 rho to 0 needs a Kostant table of 5474304 entries; the budget
    refuses it before allocating anything."""
    proc, elapsed = _timed_cli("qanalogue", "E6", "[1,1,1,1,1,1]",
                               "[0,0,0,0,0,0]", timeout=30)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and "5474304" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert elapsed < 2.0


def test_qanalogue_large_weight_in_rank_1():
    """A rank-1 factor is answered as v^c, with no table to hold every
    power of v below it."""
    proc, elapsed = _timed_cli("qanalogue", "A1", "[399998]", "[0]",
                               timeout=30)
    assert (proc.returncode, proc.stdout.strip()) == (0, "v^199999")
    assert proc.stderr == ""
    assert elapsed < 2.0


def test_qanalogue_over_kostant_bit_bound_exits_2_quickly():
    """A2 (400, 400) to 0 has a box of 160801 entries, inside the entry
    bound, whose packed polynomials would take 579044401 bits; the bit
    budget refuses it after the sweep at v = 1."""
    proc, elapsed = _timed_cli("qanalogue", "A2", "[400,400]", "[0,0]",
                               timeout=30)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and "579044401 bits" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert elapsed < 2.0


def test_verify_huge_radius_exits_2_quickly():
    proc, elapsed = _timed_cli("verify", "A3", "--radius", "1000", timeout=30)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: the weight box of radius 1000")
    assert "above the bound" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert elapsed < 1.0


def test_verify_order_suite_budget_exits_2_quickly():
    """A3 at radius 20 holds 68921 weights, inside the box bound, but the
    order suite would make 4751758345 comparisons."""
    for suite in ("order", "all"):
        proc, elapsed = _timed_cli("verify", "A3", "--radius", "20",
                                   "--suite", suite, timeout=30)
        assert proc.returncode == 2 and proc.stdout == "", suite
        assert "4751758345 comparisons" in proc.stderr, suite
        assert "Traceback" not in proc.stderr, suite
        assert elapsed < 1.0, suite


@pytest.mark.parametrize("spec", ["A3", "B3", "C3"])
def test_verify_rank_3_defaults_are_bounded(spec):
    """Every suite at radius 2: relation (2) of the bernstein suite alone
    would run for minutes, so the run passes or is refused with exit 2
    within seconds."""
    proc, elapsed = _timed_cli("verify", spec, timeout=30)
    assert proc.returncode in (0, 2), proc.stderr
    if proc.returncode == 2:
        assert proc.stdout == "" and proc.stderr.startswith("error:")
        assert "above the bound" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert elapsed < 10.0



@pytest.mark.parametrize("spec, pairs", [("F4", 1327104), ("E6", 2687385600)])
def test_verify_bernstein_pair_budget_exits_2_quickly(spec, pairs):
    """Relation (1) walks W x W at every radius; F4 ran for 40 seconds at
    radius 0, and E6 would enumerate W only to walk 2.7e9 pairs."""
    proc, elapsed = _timed_cli("verify", spec, "--suite", "bernstein",
                               "--radius", "0", timeout=30)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: relation (1)")
    assert f"{pairs} pairs" in proc.stderr and "above the bound" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert elapsed < 10.0
