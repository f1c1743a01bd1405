"""Fuzz of the CLI exit-code contract: for any argv and any character file,
`cli.run` returns 0, 1 or 2 without raising, writes no traceback, and returns
1 only from `verify` and `reconcile` (a verification failure)."""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from exotictilt import cli

SPECS = ["A1", "A2", "B2", "G2", "A1xA1", "A0", "Q2", "A1x", "", "A²", "A٣"]

INTS = st.integers(-3, 3)
WEIGHTS = st.one_of(
    st.lists(INTS, min_size=0, max_size=3).map(json.dumps),
    st.sampled_from(["[1.5]", "[true]", "[null]", "x", "[]", "[1,", "{}",
                     "null", "[1, 2, 3, 4]", '"[1]"']),
)
ELEMENT_TOKENS = st.sampled_from(
    ["e", "s0", "s1", "s2", "s-1", "s9", "sx", "s\u0661", "s+1", "t[1,0]",
     "t[-1]", "t[1.5]", "o[1]", "o[0,1]", "o[x]", "q", "*"])
ELEMENTS = st.lists(ELEMENT_TOKENS, max_size=4).map(" ".join)
RADII = st.sampled_from(["0", "1", "-1", "x", "1.0"])
SUITES = st.sampled_from(["bernstein", "module", "order", "anchors", "all",
                          "nope"])

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | INTS | st.floats(allow_nan=False, width=16)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
RECORDS = st.fixed_dictionaries(
    {},
    optional={
        "weight": st.one_of(st.lists(INTS, max_size=3), JSON_VALUES),
        "count": st.one_of(st.integers(-2, 3), JSON_VALUES),
    },
)
CHARACTER_DOCS = st.one_of(
    st.fixed_dictionaries(
        {"basis": st.sampled_from(["Weyl", "good", "bad", 1]),
         "mults": st.lists(RECORDS, max_size=3)},
    ),
    JSON_VALUES,
)


@st.composite
def argvs(draw):
    """An argv for one command; the character file, if any, is the
    placeholder CHAR."""
    spec = draw(st.sampled_from(SPECS))
    command = draw(st.sampled_from(
        ["rootinfo", "length", "reduced", "wlambda", "bruhat", "hecke-mul",
         "theta", "kclass", "qanalogue", "gamma", "tilt", "reconcile",
         "verify", "nope"]))
    if command in ("length", "reduced"):
        argv = [command, spec, draw(ELEMENTS)]
    elif command in ("bruhat", "hecke-mul"):
        argv = [command, spec, draw(ELEMENTS), draw(ELEMENTS)]
    elif command in ("wlambda", "theta"):
        argv = [command, spec, draw(WEIGHTS)]
    elif command in ("qanalogue", "gamma"):
        argv = [command, spec, draw(WEIGHTS), draw(WEIGHTS)]
    elif command == "kclass":
        kind = draw(st.sampled_from(["line", "delta", "nabla", "bs", "foo"]))
        if kind == "bs":
            omega = draw(st.one_of(
                st.sampled_from(["e", "omega", "o[1]", "o[1,0]"]), ELEMENTS))
            args = [omega] + draw(st.lists(ELEMENT_TOKENS, max_size=3))
        else:
            args = [draw(WEIGHTS)]
        argv = [command, kind, spec, *args]
    elif command == "tilt":
        kind = draw(st.sampled_from(["std", "costd", "dominant"]))
        if kind == "dominant":
            argv = [command, kind, spec, draw(WEIGHTS)]
            if draw(st.booleans()):
                argv += ["--tilt-char", "CHAR"]
        else:
            argv = [command, kind, spec, "CHAR", draw(WEIGHTS)]
    elif command == "reconcile":
        argv = [command, spec, "CHAR"]
    elif command == "verify":
        argv = [command, spec, "--radius", draw(RADII), "--suite", draw(SUITES)]
    else:
        argv = [command, spec]
    if draw(st.booleans()):
        argv.append("--json")
    # now and then cut the argv short or repeat an argument, for arity errors
    mangle = draw(st.sampled_from(["keep", "keep", "cut", "repeat"]))
    i = draw(st.integers(0, len(argv) - 1))
    if mangle == "cut":
        argv = argv[:i]
    elif mangle == "repeat":
        argv = argv[:i + 1] + argv[i:]
    return argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def _check_contract(argv, code, err):
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, (argv, err)
    if code == 1:
        assert argv[0] in ("verify", "reconcile"), (argv, code)


@pytest.fixture(scope="module")
def char_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "char.json"


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=argvs(), doc=CHARACTER_DOCS)
def test_cli_exit_contract_on_argv(char_path, argv, doc):
    char_path.write_text(json.dumps(doc))
    argv = [str(char_path) if a == "CHAR" else a for a in argv]
    code, _, err = _run(argv)
    _check_contract(argv, code, err)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec=st.sampled_from(["A1", "A2", "B2"]), doc=CHARACTER_DOCS,
       raw=st.one_of(st.none(), st.text(max_size=8)),
       weight=st.lists(INTS, min_size=1, max_size=2).map(json.dumps),
       command=st.sampled_from(["reconcile", "std", "costd", "dominant"]))
def test_cli_exit_contract_on_character_files(char_path, spec, doc, raw,
                                              weight, command):
    """Character files: structured documents with missing, mistyped or
    out-of-range fields, arbitrary JSON, and text that is not JSON."""
    char_path.write_text(json.dumps(doc) if raw is None else raw)
    path = str(char_path)
    if command == "reconcile":
        argv = ["reconcile", spec, path]
    elif command == "dominant":
        argv = ["tilt", "dominant", spec, weight, "--tilt-char", path]
    else:
        argv = ["tilt", command, spec, path, weight]
    code, _, err = _run(argv)
    _check_contract(argv, code, err)
