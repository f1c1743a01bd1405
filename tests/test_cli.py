import hashlib
import io
import json
import resource
import subprocess
import sys
import time

import pytest

from conftest import child_env, run_cli_process, run_python
from exotictilt import affweyl, build_root_system, cli
from exotictilt.exotic_k import KClass


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


def test_reconcile_mismatch_exits_1(tmp_path, capsys, monkeypatch):
    """With one costandard coefficient doubled, reconcile names the weight
    where the two computations differ and exits 1."""
    real = cli.tiltmult.costandard_expansion

    def rigged(rs, cm):
        terms = dict(real(rs, cm).terms)
        terms[-2, 1] *= 2
        return KClass(terms)
    monkeypatch.setattr(cli.tiltmult, "costandard_expansion", rigged)
    char = {"basis": "good", "mults": [{"weight": [1, 1], "count": 1}]}
    path = tmp_path / "char.json"
    path.write_text(json.dumps(char))
    code, out, _ = run_cli(capsys, "reconcile", "A2", str(path))
    assert (code, out) == (1, "mismatch at [-2, 1]")
    code, out, _ = run_cli(capsys, "reconcile", "A2", str(path), "--json")
    assert (code, out) == (1, '{"detail": [{"costandard": [[2, 2]], '
                              '"tensor": [[2, 1]], "weight": [-2, 1]}], '
                              '"status": "mismatch"}')


def test_verify_exit_codes(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "verify", "A1", "--suite", "order",
                           "--radius", "2")
    assert code == 0 and "pass" in out
    from exotictilt import verify

    def failing(rs, which, radius, seed=0):
        rep = verify.Report("rigged")
        rep.check(False, "counterexample lam=(1,)")
        return [rep]

    monkeypatch.setattr(verify, "run_suites", failing)
    code, out, _ = run_cli(capsys, "verify", "A1")
    assert code == 1 and "counterexample" in out


def test_suite_names_are_the_verify_suites():
    """The --suite choices come from cli.SUITE_NAMES, so that building the
    parser does not import verify."""
    from exotictilt import verify
    assert cli.SUITE_NAMES == tuple(verify.SUITES)


def test_import_loads_neither_verify_nor_dataclasses():
    """A one-shot command pays for what importing cli loads: verify loads
    only with the verify command, and no class is built by dataclasses.
    In a child process, since pytest has imported dataclasses itself."""
    proc = run_python("-S", "-c", "import exotictilt.cli, sys; print(sorted("
                      "{'exotictilt.verify', 'dataclasses'} & set(sys.modules)))")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


LAZY_CASES = [
    ("theta", "G2", "[-2,-2]"),
    ("hecke-mul", "A2", "s1", "s2"),
    ("kclass", "line", "A2", "[-1,-1]"),
    ("tilt", "dominant", "A2", "[1,1]"),
    ("verify", "A1", "--radius", "0"),
]


def _unprinted_form(*args):
    raise AssertionError("built the form that is not printed")


@pytest.mark.parametrize("flags, unprinted", [
    ((), ("hecke_json", "kclass_json")),
    (("--json",), ("hecke_str", "kclass_str")),
], ids=["text", "json"])
def test_only_the_printed_form_is_built(capsys, monkeypatch, flags, unprinted):
    for name in unprinted:
        monkeypatch.setattr(cli, name, _unprinted_form)
    for argv in LAZY_CASES:
        code, out, err = run_cli(capsys, *argv, *flags)
        assert (code, err) == (0, "") and out, argv


# sha256 of stdout without and with --json, recorded from the renderer that
# built both forms and walked each term's reduced word alone; the kclass delta
# entries outside Z.Phi (A2, D4), from the delta_class that swept the reduced
# word of w_lam^-1 from m_0.
GOLDEN = {
    ("theta", "G2", "[-3,-3]"): (
        "a0e089598473598688c8c617ee83cad968ea360a68c62988278fd525a90c7ce5",
        "2488dd20dd81e8816eedda6fb4a9a3cb1fa773cf8c611fad4a11858fab262616"),
    ("hecke-mul", "A2", "t[3,3]", "t[-3,-3]"): (
        "0dde91904c3a1851314d965f2f113bc991757951de75e87f7bba5cd27893d566",
        "bc1ead8339615c04eeea0c5a9742299dc860c174ecac8ab637f0d0ada9c04e56"),
    ("hecke-mul", "A2", "o[1,0]", "s0"): (
        "88240359f0bf24b3d8c989159bbbaa5650c1f480471e18f9903d1a192b55abac",
        "b5a5e7ac3967992c944c3cba90a70850a2b7c5bfb3ee1a46cf10d9b865d7f086"),
    ("tilt", "dominant", "B3", "[2,2,2]"): (
        "c2c90562bdbd600a31d3c8ecf980a96e9274341fd2ad1aeb6a3b70588ecd38f7",
        "2012d89540d7cb3c7bafd90c6df3f477d0033c4009d321abf795e295368e4ab9"),
    ("kclass", "line", "G2", "[-4,-4]"): (
        "5c1c7bc0215639c891190330112561d6cb550b8413f95b2e31bb3508d1a81e99",
        "12e2610965ed747825fa97cb1dfc5c1a2fed5cd7b4af0ea383902ecb6ceaf810"),
    ("kclass", "delta", "G2", "[3,-5]"): (
        "984b42cae70f56b1400397ae579dd4f111f6e732f2691a1e316fc92c1e651897",
        "d22d36720667d78e0da1d8d58e44b03ec7796785eb7a4f27923a7a18eabe8909"),
    ("kclass", "delta", "A2", "[2,-3]"): (
        "33fc4691322baeb1d598a13886275b1cec0800c674252d6135e5e7a1ac787cce",
        "6ce1247e73ba34d97e7fe2e7582ca3e443780d065ef55d13ec75e329a6670ef1"),
    ("kclass", "delta", "D4", "[2,-3,1,0]"): (
        "5e0788a2e75ad43a388c3ce8c4d0727119f09e91af997845a668d3896738fb5f",
        "3104335e2777bb49ac6360523e4920314d60e41360dd752273d7610c3a6f9799"),
    ("kclass", "bs", "A2", "o[1,0]", "s1", "s0"): (
        "d38f8cda02c5598436d52feb0e8823360e1939e1a0b7e21c7de6465936d1a01e",
        "5aba2f538c5bb4b31795501c471d96032c73efdd4a24780b8135e7645e6e17ae"),
    ("reduced", "G2", "t[30,-40]"): (
        "66d4cec70cd048a4cea091aa727f6c471b490c561a2a08862b0137f362886daf",
        "28e5ad14f7243e6e14be4ddfd7ec27d77042d6cf0084f0d282e611a5eafaf853"),
    ("verify", "A1", "--radius", "1"): (
        "4bc6a841b60f5e9196a1eba6c691d59eada744b9f800787bac489a1a45f05017",
        "e1eeeee75e9966fe933872f8336bf24cb82c5fbc61ae6668eb47c0499a4bd3c3"),
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_golden_outputs(capsys, argv):
    digests = []
    for flags in ((), ("--json",)):
        assert cli.run([*argv, *flags]) == 0
        out = capsys.readouterr().out
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    assert tuple(digests) == GOLDEN[argv]


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


@pytest.mark.parametrize("argv", [
    ("reduced", "A2", "s\u0661 s2"),
    ("reduced", "A2", "s+1"),
    ("length", "A2", "s1_0"),
    ("kclass", "bs", "A2", "e", "s\u0661"),
    ("verify", "A1", "--radius", "\u0661"),
    ("verify", "A1", "--radius", "+1"),
    ("verify", "A1", "--radius", " 1"),
    ("verify", "A1", "--radius", "0", "--seed", "\u0663"),
    ("verify", "A1", "--radius", "0", "--seed", "+3"),
], ids=ascii)
def test_integers_must_be_ascii_digits(capsys, argv):
    """int() also reads other scripts' digits, '+', '_' and spaces.  A
    generator id and --seed are an optional '-' and ASCII digits, --radius
    ASCII digits; anything else exits 2 with one error line."""
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "") and "Traceback" not in err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1
    if argv[0] != "verify":
        assert err.startswith("error: bad generator token") and "\n" not in err


def test_negative_generator_ids_and_seeds_are_accepted(capsys):
    """s-1 is the affine generator of the second component."""
    assert run_cli(capsys, "reduced", "A1xA1", "s-1 s1") == (0, "s-1 s1", "")
    code, out, _ = run_cli(capsys, "verify", "A1", "--radius", "0",
                           "--suite", "module", "--seed", "-3")
    assert code == 0 and "seed -3" in out


def test_kclass_nabla_is_the_basis_class(capsys):
    assert run_cli(capsys, "kclass", "nabla", "A2", "[2,-3]") == (0, "m[2,-3]", "")
    code, out, _ = run_cli(capsys, "kclass", "nabla", "A2", "[2,-3]", "--json")
    assert (code, json.loads(out)) == (0, [{"poly": [[0, 1]], "weight": [2, -3]}])


def test_kclass_bs_refuses_a_non_generator_token(capsys):
    assert run_cli(capsys, "kclass", "bs", "A2", "e", "t1") == (
        2, "", "error: expected a generator token, got 't1'")


@pytest.mark.parametrize("record", [
    {"weight": [-1, 0], "count": 1}, {"weight": [1, 0], "count": -1}],
    ids=["non-dominant", "negative"])
def test_character_non_dominant_weight_or_negative_count_exits_2(
        tmp_path, capsys, record):
    path = tmp_path / "char.json"
    path.write_text(json.dumps({"basis": "Weyl", "mults": [record]}))
    for argv in (("tilt", "std", "A2", str(path), "[0,0]"),
                 ("reconcile", "A2", str(path)),
                 ("tilt", "dominant", "A2", "[1,1]", "--tilt-char", str(path))):
        assert run_cli(capsys, *argv) == (2, "", (
            "error: character multisets need dominant keys and nonnegative "
            "counts")), argv[:2]


@pytest.mark.parametrize("before, after", [
    (("--json", "theta", "A1", "[-1]"), ("theta", "A1", "[-1]", "--json")),
    (("tilt", "--json", "dominant", "A1", "[1]"),
     ("tilt", "dominant", "A1", "[1]", "--json")),
], ids=["top", "tilt"])
def test_global_flags_before_the_sub_command(capsys, before, after):
    """The common options are accepted at every level of the parser."""
    outs = []
    for argv in (before, after):
        assert cli.run(list(argv)) == 0
        outs.append(capsys.readouterr())
    assert outs[0] == outs[1] and outs[0].out.startswith("[{")


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


def test_bott_samelson_start_is_any_length_0_element(capsys):
    """The start of kclass bs is read as element text: in A2 the product
    o[1,0]*o[1,0] is o[0,1], since 2 omega_1 = omega_2 mod Z.Phi."""
    for start in ("o[1,0]*o[1,0]", "o[0,1]"):
        code, out, _ = run_cli(capsys, "kclass", "bs", "A2", start, "s1")
        assert (code, out) == (0, "m[1,-1] + v*m[-1,0]"), start


def _omega_from_the_closure(rs):
    """The 'omega' argument read from the whole Omega table: its unique
    nontrivial element, or None when there is none or more than one."""
    nontrivial = [om for om in affweyl.omega_elements(rs).values()
                  if om != affweyl.identity(rs)]
    return nontrivial[0] if len(nontrivial) == 1 else None


@pytest.mark.parametrize("spec", [
    "G2", "F4", "A1", "B2", "C3", "C4", "E7", "A2", "E6", "D4", "A1xA1"])
def test_omega_argument_matches_the_omega_closure(spec):
    """'omega' names the nontrivial element of Omega exactly when det A = 2,
    as the Omega table says, and is refused with one error line otherwise."""
    rs = build_root_system(spec)
    expect = _omega_from_the_closure(rs)
    if expect is None:
        with pytest.raises(ValueError, match="'omega' is ambiguous"):
            cli.parse_omega_arg(rs, "omega")
    else:
        assert cli.parse_omega_arg(rs, "omega") == expect


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


def test_out_of_memory_exits_2():
    """tilt dominant B3 (8,8,8) needs more than 100 MB of address space,
    in text form and with --json; capped at 64 MB, the MemoryError ends in
    one error line and exit 2."""
    cap = 64 << 20
    proc = run_cli_process(
        "tilt", "dominant", "B3", "[8,8,8]", timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:"), proc.stderr
    assert "Traceback" not in proc.stderr


def test_json_of_a_large_class_fits_the_text_forms_memory():
    """--json encodes a K-class one term at a time: the 11.7 MB document of
    tilt dominant B3 (8,8,8) prints under a 150 MB address-space cap, with
    the bytes of an uncapped run.  Built as one list of 47,113 term dicts
    and then one string, it needed 190-200 MB."""
    argv = ("tilt", "dominant", "B3", "[8,8,8]", "--json")
    free = run_cli_process(*argv, timeout=60)
    cap = 150 << 20
    capped = run_cli_process(
        *argv, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    assert (capped.returncode, capped.stderr) == (0, ""), capped.stderr
    digests = {hashlib.sha256(proc.stdout.encode()).hexdigest()
               for proc in (free, capped)}
    assert free.returncode == 0 and len(digests) == 1


@pytest.mark.parametrize("argv", [
    ("verify", "A2", "--radius", "1"),
    ("theta", "G2", "[-2,-2]", "--json"),
    ("tilt", "dominant", "B2", "[1,1]", "--json"),
    ("qanalogue", "B3", "[1,1,1]", "[0,0,0]"),
])
def test_optimized_python_runs_the_same_program(argv):
    """No result rests on an assert statement: under python -O each
    command prints the same output and exits with the same code."""
    plain = run_python("-m", "exotictilt.cli", *argv, timeout=60)
    optimized = run_python("-O", "-m", "exotictilt.cli", *argv, timeout=60)
    assert (optimized.stdout, optimized.returncode) == (
        plain.stdout, plain.returncode)
    assert plain.returncode == 0 and plain.stdout


def test_closed_stdout_exits_141_quietly():
    """A reader that closes stdout after 20 bytes of a 1.6 MB answer, as
    `| head -c 20` does: the CLI exits 141, the status a shell reports
    after SIGPIPE, with nothing on stderr."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "exotictilt.cli", "tilt", "dominant", "B3",
         "[5,5,5]"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
    head = proc.stdout.read(20)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141, err
    assert len(head) == 20 and err == b""


def _timed_cli(*argv, timeout):
    """Run the CLI in a child process whose address space is capped at
    512 MB, so a command that allocates far more fails with exit 2 instead
    of loading the host."""
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


def test_verify_module_suite_budget_exits_2_quickly():
    """The module suite on D4 at radius 2 ran for 36 to 52 seconds at some
    560 MB; its estimate refuses it with one error line."""
    proc, elapsed = _timed_cli("verify", "D4", "--suite", "module", timeout=30)
    assert proc.returncode == 2 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("error: the module suite on the weight box")
    assert "above the bound" in lines[0]
    assert elapsed < 1.0


@pytest.mark.parametrize("argv", [
    ("D4",), ("A4",), ("A2", "--radius", "20"), ("G2", "--radius", "10")])
def test_verify_anchors_suite_budget_exits_2_quickly(argv):
    """The anchors suite ran 103 seconds on D4 and 18 on A4 at radius 2, 28
    on A2 at radius 20 and 52 on G2 at radius 10; its estimate refuses each
    with one error line."""
    proc, elapsed = _timed_cli("verify", *argv, "--suite", "anchors",
                               timeout=30)
    assert proc.returncode == 2 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("error: the anchors suite on the weight box")
    assert "above the bound" in lines[0]
    assert elapsed < 1.0


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
