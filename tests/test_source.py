"""Static checks over the library source."""

import ast
import pathlib

import exotictilt
from exotictilt import verify

SRC = pathlib.Path(exotictilt.__file__).parent


def test_no_assert_or_debug_paths():
    """Checks must raise: `assert` statements and `__debug__` blocks vanish
    under `python -O`, which would make it run a different program."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert) or (
                    isinstance(node, ast.Name) and node.id == "__debug__"):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_no_streaming_json_dump():
    """json.dump streams through the pure-Python encoder, several times
    slower than the C encoder behind json.dumps; the cache write is on the
    path of every CLI command."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and node.attr == "dump"
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "json") or (
                    isinstance(node, ast.ImportFrom) and node.module == "json"
                    and any(alias.name == "dump" for alias in node.names)):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_memo_tables_are_reached_only_through_memo():
    """Memo tables live in RootSystem._cache, which only RootSystem's
    __init__ (which makes it) and memo, and rootdata.memoized, touch;
    everything else goes through them."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        allowed = set()
        if path.name == "rootdata.py":
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and node.name in (
                        "__init__", "memo", "memoized"):
                    allowed.update(map(id, ast.walk(node)))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "_cache"
                    and id(node) not in allowed):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_no_dataclasses():
    """dataclasses builds each class's methods from generated source, and
    importing it pulls in inspect and ast: together most of the import
    time of a one-shot command.  Records are NamedTuples or classes with
    __slots__."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = ([alias.name for alias in node.names]
                     if isinstance(node, ast.Import) else
                     [node.module] if isinstance(node, ast.ImportFrom) else [])
            if "dataclasses" in names:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_memo_table_names_are_unique():
    """Two functions memoized under one table name would silently return
    each other's values."""
    owners = {}
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.FunctionDef):
                continue
            for dec in node.decorator_list:
                if not (isinstance(dec, ast.Call)
                        and isinstance(dec.func, ast.Name)
                        and dec.func.id == "memoized"):
                    continue
                where = f"{path.name}:{node.name}"
                arg = dec.args[0] if dec.args else None
                if not (isinstance(arg, ast.Constant)
                        and isinstance(arg.value, str)):
                    found.append(f"{where}: table name is not a literal")
                elif arg.value in owners:
                    found.append(f"{where}: {arg.value!r} is also the table "
                                 f"of {owners[arg.value]}")
                else:
                    owners[arg.value] = where
    assert owners and not found, found


def test_no_fractions():
    """Every Weyl computation, the Freudenthal recursion included, runs in
    integers scaled by det A: no source line names Fraction or the fractions
    module, imported or not."""
    found = [
        f"{path.name}:{n}"
        for path in sorted(SRC.rglob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if "Fraction" in line or "fractions" in line
    ]
    assert not found, found


def test_laurent_coefficients_are_read_only_in_laurent():
    """LaurentPoly.c is laurent.py's own representation; other modules go
    through its methods, so the representation can change in one file."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "laurent.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "c":
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_generator_steps_go_through_heckebraid():
    """affweyl.gen_step is the one closed-form generator step; outside
    affweyl, only heckebraid calls it, so every module step (left products
    and the K-module included) goes through heckebraid._step."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name in ("affweyl.py", "heckebraid.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Name) and node.id == "gen_step") or (
                    isinstance(node, ast.Attribute)
                    and node.attr == "gen_step") or (
                    isinstance(node, ast.alias) and node.name == "gen_step"):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def _functions():
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield path, node


def test_no_dead_locals():
    """No function assigns a local that it never reads (names starting with
    an underscore are exempt).  Reads in nested functions count, since a
    closure reads its parent's locals."""
    found = []
    for path, fn in _functions():
        stored, read = {}, set()
        for node in ast.walk(fn):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                read.update(node.names)
            elif isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Store):
                    stored.setdefault(node.id, node.lineno)
                else:
                    read.add(node.id)
        found += [f"{path.name}:{line} {fn.name}: {name}"
                  for name, line in stored.items()
                  if name not in read and not name.startswith("_")]
    assert not found, found


# (module, function) -> names the function must not call: the K-module's
# basis action steps t_lam, not the minimal coset representative w_lam; an
# Omega-part is read off the translation's Z.Phi-class, with no Omega
# closure; the Bruhat walk runs inside one Omega-component, with no Omega
# split; tensor_class reads line bundles off their table, with no theta
# sweep; delta_class walks the K-module's own descents, with no reduced
# word; the Bruhat walk takes first_descent, with no generator search of its
# own; the K-module's descent iterates gen_roots, building no generator
# list per step; the Hecke renderers read one shared term list, asking no word or
# length of their own, directly, through element_str or a sort key;
# act_hecke takes a Hecke element only, with no switch on a word type; and
# dominant_rep, w_lambda, gen_roots and omega_elements re-prove no length
# inline, since tier-1 and verify check those invariants once, on every type.
NO_OMEGA_SPLIT = {"omega_of_weight", "aff_inv", "reduced_word"}
SHARED_TERMS = {"reduced_word", "aff_length", "element_str", "_hecke_sort_key"}
REPLACED_CALLS = {
    ("exotic_k.py", "_basis_gen_action"): {"w_lambda", "dominant_rep"},
    ("exotic_k.py", "_basis_omega_action"): {"w_lambda", "dominant_rep"},
    ("exotic_k.py", "tensor_class"): {"theta_letters", "_act"},
    ("exotic_k.py", "delta_class"): {"w_lambda", "aff_inv", "word_letters",
                                     "reduced_word"},
    ("exotic_k.py", "_descent"): {"generator_order"},
    ("affweyl.py", "first_descent"): {"apply", "height_row"},
    ("affweyl.py", "bruhat_leq"): NO_OMEGA_SPLIT,
    ("affweyl.py", "_bruhat_walk"): NO_OMEGA_SPLIT | {"generator_order"},
    ("cli.py", "parse_omega_arg"): {"omega_elements"},
    ("cli.py", "hecke_str"): SHARED_TERMS,
    ("cli.py", "hecke_json"): SHARED_TERMS,
    ("exotic_k.py", "act_hecke"): {"isinstance", "BraidWord"},
    ("rootdata.py", "dominant_rep"): {"weyl_length"},
    ("affweyl.py", "w_lambda"): {"aff_length"},
    ("affweyl.py", "gen_roots"): {"aff_length"},
    ("affweyl.py", "omega_elements"): {"aff_length"},
}


def test_replaced_calls_stay_gone():
    seen, found = set(), []
    for path, fn in _functions():
        banned = REPLACED_CALLS.get((path.name, fn.name))
        if banned is None:
            continue
        seen.add((path.name, fn.name))
        found += [f"{path.name}:{node.lineno} {fn.name}"
                  for node in ast.walk(fn)
                  if (isinstance(node, ast.Name) and node.id in banned) or (
                      isinstance(node, ast.Attribute) and node.attr in banned)]
    assert seen == set(REPLACED_CALLS), seen
    assert not found, found


def test_one_descent_walk():
    """walk_down is the one loop that walks down descents to a memo:
    reduced_word and delta_class call it and loop no further, and the
    closed-form descent test lives only in first_descent and gen_step, so
    no source names the old per-generator descends."""
    walkers, found = set(), []
    for path, fn in _functions():
        if (path.name, fn.name) in (("affweyl.py", "reduced_word"),
                                    ("exotic_k.py", "delta_class")):
            walkers.add(fn.name)
            nodes = list(ast.walk(fn))
            if any(isinstance(node, ast.While) for node in nodes) or not any(
                    isinstance(node, ast.Name) and node.id == "walk_down"
                    for node in nodes):
                found.append(f"{path.name}:{fn.lineno} {fn.name}")
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if "descends" in (getattr(node, "id", None),
                              getattr(node, "attr", None),
                              getattr(node, "name", None)):
                found.append(f"{path.name}:{node.lineno} descends")
    assert walkers == {"reduced_word", "delta_class"} and not found, found


def test_braid_words_are_letter_tuples():
    """A braid word is the tuple of letters heckebraid.act takes: no source
    line names a word wrapper class."""
    found = [
        f"{path.name}:{n}"
        for path in sorted(SRC.rglob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if "BraidWord" in line
    ]
    assert not found, found


def test_commands_print_only_through_emit():
    """Every cli command prints through _emit, which builds only the form
    asked for, text or JSON."""
    commands, found = set(), []
    for path, fn in _functions():
        if path.name != "cli.py" or not fn.name.startswith("cmd_"):
            continue
        commands.add(fn.name)
        found += [f"cli.py:{node.lineno} {fn.name}" for node in ast.walk(fn)
                  if isinstance(node, ast.Name) and node.id == "print"]
    assert len(commands) >= 13 and not found, (commands, found)


def test_budgets_are_rows():
    """Every verify budget is a row of verify.BUDGETS: _check_budget names
    no suite, every suite has a row, and the module estimate stops its walks
    through the lazy closure rather than a walk of its own."""
    fns = {fn.name: fn for path, fn in _functions() if path.name == "verify.py"}
    found = [f"_check_budget:{node.lineno} {node.value!r}"
             for node in ast.walk(fns["_check_budget"])
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and any(name in node.value for name in verify.SUITES)]
    found += [f"{name}: no row" for name in verify.SUITES
              if name not in {b.suite for b in verify.BUDGETS}]
    nodes = list(ast.walk(fns["_module_work"]))
    found += [f"_module_work:{node.lineno}" for node in nodes
              if isinstance(node, ast.While) or (
                  isinstance(node, ast.Attribute) and node.attr == "append")]
    assert any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id == "closure" for node in nodes)
    assert not found, found


def test_hand_kept_memo_tables():
    """The tables filled by hand, the names passed to memo(...) that no
    @memoized function owns, are the six the README lists."""
    by_hand, owned = set(), set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.Call) and node.args
                    and isinstance(node.args[0], ast.Constant)):
                continue
            if isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "memo":
                by_hand.add(node.args[0].value)
            elif isinstance(node.func, ast.Name) \
                    and node.func.id == "memoized":
                owned.add(node.args[0].value)
    assert by_hand - owned == {"mat_inv", "bruhat", "kostant_table",
                               "inversion_flags", "line_bundle",
                               "finite_step"}
