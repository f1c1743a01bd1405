"""Command-line front end.

Data syntax:
  * weights: "[a1,...,ar]" in fundamental-weight coordinates;
  * affine elements: whitespace/'*'-separated products of tokens
    "e", "s<k>" (simple reflections; "s0" is the affine one), "t[...]"
    (translations) and "o[...]" (the length-0 element in the Z.Phi-class of
    the bracketed weight), e.g. "s1 s2*t[1,0]";
  * character files: JSON {"basis": "Weyl"|"good",
                           "mults": [{"weight": [...], "count": n}, ...]}.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error or
out of memory, 141 stdout closed by its reader (the status a shell reports
after SIGPIPE).
A JSON cache of Kostant partition tables can be supplied with --cache; a
cache that is stale, unreadable or undecodable is ignored, and one that
cannot be written exits 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .laurent import LaurentPoly, ONE
from .rootdata import RootSystem, RootSystemError, build_root_system
from . import affweyl, charring, exotic_k, heckebraid, tiltmult
from .affweyl import AffineElement
from .charring import GOOD_BASIS, WEYL_BASIS, CharacterMultiset
from .exotic_k import KClass
from .heckebraid import HeckeElement

CACHE_VERSION = 1
# The names of verify.SUITES, so that building the parser does not import
# verify: only the verify command loads it.
SUITE_NAMES = ("bernstein", "module", "order", "anchors")


class CliError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Parsing


def _shown(value) -> str:
    """repr(value) for an error line, cut to 60 characters: a quoted
    literal can be thousands of characters long."""
    text = repr(value)
    return text if len(text) <= 60 else text[:60] + "..."


def parse_weight(rs: RootSystem, text: str):
    try:
        coords = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise CliError(f"bad weight literal {_shown(text)}: {exc}") from None
    if not _is_int_list(coords, rs.rank):
        raise CliError(f"weight {_shown(text)} must be {rs.rank} integers")
    return tuple(coords)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_int_list(x, length) -> bool:
    return isinstance(x, list) and len(x) == length and all(map(_is_int, x))


def parse_element(rs: RootSystem, text: str) -> AffineElement:
    x = affweyl.identity(rs)
    gens = affweyl.simple_generators(rs)
    for token in text.replace("*", " ").split():
        if token == "e":
            continue
        if token.startswith("t[") and token.endswith("]"):
            x = affweyl.aff_mul(rs, x, affweyl.t_lambda(rs, parse_weight(rs, token[1:])))
        elif token.startswith("o[") and token.endswith("]"):
            x = affweyl.aff_mul(
                rs, x, affweyl.omega_of_weight(rs, parse_weight(rs, token[1:]))
            )
        elif token.startswith("s"):
            x = affweyl.aff_mul(rs, x, gens[parse_generator(rs, token)])
        else:
            raise CliError(f"bad element token {_shown(token)}")
    return x


def parse_omega_arg(rs: RootSystem, text: str) -> AffineElement:
    """A length-0 element: "omega", the one nontrivial element of Omega, or
    any element text of length 0, such as "e" or "o[...]"."""
    if text == "omega":
        # |Omega| = det A, so a unique nontrivial element needs det A = 2
        if rs.cartan_det != 2:
            raise CliError(
                "'omega' is ambiguous here; use o[...] with a class representative"
            )
        return affweyl.omega_of_weight(rs, next(
            f for f in rs.identity_matrix if any(affweyl.coset_class_key(rs, f))))
    x = parse_element(rs, text)
    if affweyl.aff_length(rs, x) != 0:
        raise CliError(f"element {_shown(text)} does not have length 0")
    return x


def parse_generator(rs: RootSystem, token: str) -> int:
    """The generator id of a token "s<k>" naming a simple reflection of rs."""
    if not token.startswith("s"):
        raise CliError(f"expected a generator token, got {_shown(token)}")
    try:
        gid = int(token[1:])
    except ValueError:
        raise CliError(f"bad generator token {_shown(token)}") from None
    if gid not in affweyl.simple_generators(rs):
        raise CliError(f"no simple reflection {_shown(token)} in {rs.spec}")
    return gid


def load_character(rs: RootSystem, path: str) -> CharacterMultiset:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise CliError(f"cannot read character file {path}: {exc}") from None
    if not isinstance(doc, dict) or "basis" not in doc or "mults" not in doc:
        raise CliError("character file needs 'basis' and 'mults' fields")
    if doc["basis"] not in (WEYL_BASIS, GOOD_BASIS):
        raise CliError(f"unknown basis kind {_shown(doc['basis'])}")
    if not isinstance(doc["mults"], list):
        raise CliError("character file 'mults' must be a list")
    mults = {}
    for rec in doc["mults"]:
        if not isinstance(rec, dict) or "weight" not in rec or "count" not in rec:
            raise CliError(
                f"character record {_shown(rec)} needs 'weight' and 'count' fields"
            )
        w, count = rec["weight"], rec["count"]
        if not _is_int_list(w, rs.rank):
            raise CliError(f"character weight {_shown(w)} must be {rs.rank} integers")
        if not _is_int(count):
            raise CliError(f"character count {_shown(count)} must be an integer")
        w = tuple(w)
        mults[w] = mults.get(w, 0) + count
    try:
        return CharacterMultiset.of(rs, mults, doc["basis"])
    except ValueError as exc:
        raise CliError(str(exc)) from None


# ---------------------------------------------------------------------------
# Rendering


def weight_str(lam) -> str:
    return "[" + ",".join(str(c) for c in lam) + "]"


def element_str(rs: RootSystem, x: AffineElement) -> str:
    omega, word = affweyl.reduced_word(rs, x)
    return _word_str(omega.t, word)


def _word_str(omega_t, word) -> str:
    """The text of omega * s_{word[0]} * ...; omega is named by its
    translation, which is 0 only for the identity."""
    parts = ["o" + weight_str(omega_t)] if any(omega_t) else []
    parts.extend(f"s{gid}" for gid in word)
    return " ".join(parts) or "e"


def element_json(x: AffineElement) -> dict:
    return {"finite": [list(r) for r in x.w], "translation": list(x.t)}


def _coef_prefix(p: LaurentPoly) -> str:
    if p == ONE:
        return ""
    s = str(p)
    if p.max_exp() != p.min_exp() or s.startswith("-"):
        return f"({s})*"
    return f"{s}*"


def _hecke_terms(rs: RootSystem, xi: HeckeElement) -> list:
    """(x, reduced-word text, coefficient) for each term of xi, sorted by
    length, then Omega-part, then word.  The words are asked in increasing
    length, so each greedy walk stops at the memoised word of a shorter
    term."""
    keyed = []
    for x in sorted(xi.terms, key=lambda x: affweyl.aff_length(rs, x)):
        omega, word = affweyl.reduced_word(rs, x)
        keyed.append((len(word), omega.t, word, x))
    keyed.sort()
    return [(x, _word_str(t, word), xi.terms[x]) for _, t, word, x in keyed]


def hecke_str(rs: RootSystem, xi: HeckeElement) -> str:
    return " + ".join(f"{_coef_prefix(p)}T[{text}]"
                      for _, text, p in _hecke_terms(rs, xi)) or "0"


def hecke_json(rs: RootSystem, xi: HeckeElement):
    return ({"element": element_json(x), "word": text, "poly": p.pairs()}
            for x, text, p in _hecke_terms(rs, xi))


def kclass_str(c: KClass) -> str:
    return " + ".join(
        f"{_coef_prefix(p)}m{weight_str(w)}"
        for w, p in sorted(c.terms.items(), reverse=True)
    ) or "0"


def kclass_json(c: KClass):
    """The term dicts of c, built one at a time as _emit encodes them."""
    return ({"weight": list(w), "poly": p.pairs()}
            for w, p in sorted(c.terms.items()))


# ---------------------------------------------------------------------------
# Kostant cache persistence


def _read_cache_doc(path):
    """The cache document at path, or None if it is missing, unreadable,
    undecodable or of another version."""
    if not path:
        return None
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError):
        return None
    if not isinstance(doc, dict) or doc.get("version") != CACHE_VERSION:
        return None
    if not isinstance(doc.get("kostant", {}), dict):
        return None
    return doc


def _is_pair_list(pairs) -> bool:
    return isinstance(pairs, list) and all(
        isinstance(p, list) and len(p) == 2 and all(map(_is_int, p))
        for p in pairs
    )


def load_cache(rs: RootSystem, path) -> int:
    """Fill the Kostant memo of rs from the cache file; malformed entries are
    skipped.  Returns the memo size afterwards, for save_cache."""
    memo = rs.memo("kostant")
    doc = _read_cache_doc(path)
    table = doc.get("kostant", {}).get(rs.spec) if doc else None
    if not isinstance(table, dict):
        return len(memo)
    for key, pairs in table.items():
        try:
            mu = tuple(int(t) for t in key.split(","))
        except ValueError:
            continue
        if len(mu) == rs.rank and _is_pair_list(pairs):
            memo[mu] = LaurentPoly.from_pairs(pairs)
    return len(memo)


def save_cache(rs: RootSystem, path, loaded: int):
    """Merge the Kostant memo of rs into the cache file, if it holds more
    than the `loaded` entries load_cache left in it.  The file is replaced
    atomically, so a reader never sees a partial document; a path that
    cannot be written raises CliError."""
    memo = rs.memo("kostant")
    if not path or len(memo) <= loaded:
        return
    doc = _read_cache_doc(path) or {"version": CACHE_VERSION}
    kostant = doc.setdefault("kostant", {})
    table = kostant.get(rs.spec)
    if not isinstance(table, dict):
        table = kostant[rs.spec] = {}
    for mu, poly in memo.items():
        table[",".join(str(c) for c in mu)] = poly.pairs()
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(tmp, "w") as fh:
            # json.dumps runs the C encoder; json.dump streams the document
            # through the pure-Python one
            fh.write(json.dumps(doc, sort_keys=True))
        os.replace(tmp, path)
    except OSError as exc:
        raise CliError(f"cannot write cache file {path}: {exc}") from None
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


# ---------------------------------------------------------------------------
# Commands


def _emit(args, text, doc):
    """Print one form of a result: doc() as canonical JSON under --json,
    text() otherwise.  Both are zero-argument builders, so the form that is
    not printed is never built.  A document that is not a dict is a list or
    an iterator of items, encoded one at a time into the bytes
    json.dumps(list) would give, so the items never all exist at once."""
    if not args.json:
        print(text())
        return
    d = doc()
    print(json.dumps(d, sort_keys=True) if isinstance(d, dict) else
          "[" + ", ".join(json.dumps(item, sort_keys=True) for item in d) + "]")


def cmd_rootinfo(rs, args):
    _emit(args, lambda: (
        f"{rs.spec}: rank {rs.rank}, {len(rs.positive_roots)} positive "
        f"roots, |W| = {rs.weyl_order()}, |Omega| = {rs.cartan_det}"
    ), lambda: {
        "spec": rs.spec,
        "rank": rs.rank,
        "cartan_matrix": [list(r) for r in rs.cartan_matrix],
        "positive_roots": [list(r.coords) for r in rs.positive_roots],
        "weyl_order": rs.weyl_order(),
        "omega_order": rs.cartan_det,   # |Omega| = |X / Z.Phi| = det A
        "components": [
            {"indices": [i + 1 for i in idx], "highest_root": list(h.coords)}
            for idx, h in rs.components
        ],
    })
    return 0


def cmd_length(rs, args):
    x = parse_element(rs, args.element)
    ll = affweyl.aff_length(rs, x)
    _emit(args, lambda: str(ll),
          lambda: {"element": element_json(x), "length": ll})
    return 0


def cmd_reduced(rs, args):
    x = parse_element(rs, args.element)
    omega, word = affweyl.reduced_word(rs, x)
    _emit(args, lambda: _word_str(omega.t, word), lambda: {
        "omega": element_json(omega),
        "word": [f"s{g}" for g in word],
        "length": len(word),
    })
    return 0


def cmd_wlambda(rs, args):
    lam = parse_weight(rs, args.weight)
    elt, delta = affweyl.w_lambda(rs, lam)
    _emit(args, lambda: f"w_lambda = {element_str(rs, elt)}, delta = {delta}",
          lambda: {"element": element_json(elt), "delta": delta})
    return 0


def cmd_bruhat(rs, args):
    x = parse_element(rs, args.x)
    y = parse_element(rs, args.y)
    res = affweyl.bruhat_leq(rs, x, y)
    _emit(args, lambda: "true" if res else "false", lambda: {"leq": res})
    return 0


def cmd_hecke_mul(rs, args):
    xi = HeckeElement.basis(parse_element(rs, args.x))
    eta = HeckeElement.basis(parse_element(rs, args.y))
    prod = heckebraid.hecke_mul(rs, xi, eta)
    _emit(args, lambda: hecke_str(rs, prod), lambda: hecke_json(rs, prod))
    return 0


def cmd_theta(rs, args):
    th = heckebraid.theta(rs, parse_weight(rs, args.weight))
    _emit(args, lambda: hecke_str(rs, th), lambda: hecke_json(rs, th))
    return 0


def cmd_kclass(rs, args):
    if args.kind != "bs" and len(args.args) != 1:
        raise CliError(f"kclass {args.kind} takes one weight, "
                       f"got {len(args.args)} arguments")
    if args.kind == "line":
        c = exotic_k.line_bundle_class(rs, parse_weight(rs, args.args[0]))
    elif args.kind == "delta":
        c = exotic_k.delta_class(rs, parse_weight(rs, args.args[0]))
    elif args.kind == "nabla":
        c = exotic_k.nabla_class(rs, parse_weight(rs, args.args[0]))
    else:   # "bs"
        omega = parse_omega_arg(rs, args.args[0])
        seq = [parse_generator(rs, token) for token in args.args[1:]]
        c = exotic_k.bott_samelson_class(rs, omega, seq)
    _emit(args, lambda: kclass_str(c), lambda: kclass_json(c))
    return 0


def cmd_qanalogue(rs, args):
    lam = parse_weight(rs, args.lam)
    mu = parse_weight(rs, args.mu)
    p = charring.lusztig_q(rs, lam, mu)
    _emit(args, lambda: str(p), p.pairs)
    return 0


def cmd_gamma(rs, args):
    lam = parse_weight(rs, args.lam)
    nu = parse_weight(rs, args.nu)
    p = tiltmult.gamma_graded_char(rs, lam, nu)
    _emit(args, lambda: str(p), p.pairs)
    return 0


def cmd_tilt(rs, args):
    if args.kind in ("std", "costd"):
        cm = load_character(rs, args.charfile)
        mu = parse_weight(rs, args.weight)
        fn = tiltmult.std_mult if args.kind == "std" else tiltmult.costd_mult
        p = fn(rs, cm, mu)
        _emit(args, lambda: str(p), p.pairs)
        return 0
    # dominant
    lam = parse_weight(rs, args.weight)
    tilt_char = load_character(rs, args.tilt_char) if args.tilt_char else None
    c = tiltmult.dominant_tilting_class(rs, lam, tilt_char)
    _emit(args, lambda: kclass_str(c), lambda: kclass_json(c))
    return 0


def cmd_reconcile(rs, args):
    cm = load_character(rs, args.charfile)
    rep = tiltmult.reconcile(rs, cm)
    _emit(args, lambda: rep.status if rep.matched else (
        "mismatch at " + ", ".join(str(d["weight"]) for d in rep.detail)
    ), lambda: {"status": rep.status, "detail": rep.detail})
    return 0 if rep.matched else 1


def cmd_verify(rs, args):
    from . import verify
    reports = verify.run_suites(rs, args.suite, args.radius, args.seed)
    _emit(args, lambda: "\n".join(r.summary() for r in reports), lambda: [
        {
            "name": r.name,
            "passed": r.passed,
            "checked": r.checked,
            "failures": r.failures[:10],
        }
        for r in reports
    ])
    return 0 if all(r.passed for r in reports) else 1


# ---------------------------------------------------------------------------
# Argument parsing and dispatch


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {_shown(text)}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


@functools.cache
def build_parser():
    """The argument parser; built once, since parsing leaves it unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="emit JSON on stdout")
    common.add_argument("--cache", default=argparse.SUPPRESS,
                        help="path of the Kostant-table cache file")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="seed for randomized verification suites")
    parser = argparse.ArgumentParser(
        prog="exotictilt",
        description="Exact affine Hecke / exotic K-theory calculator",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, *spec_args):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("spec", help="root-system type, e.g. A2 or A1xA1")
        for arg_name, kwargs in spec_args:
            p.add_argument(arg_name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    add("rootinfo", cmd_rootinfo)
    add("length", cmd_length, ("element", {}))
    add("reduced", cmd_reduced, ("element", {}))
    add("wlambda", cmd_wlambda, ("weight", {}))
    add("bruhat", cmd_bruhat, ("x", {}), ("y", {}))
    add("hecke-mul", cmd_hecke_mul, ("x", {}), ("y", {}))
    add("theta", cmd_theta, ("weight", {}))

    pk = sub.add_parser("kclass", parents=[common])
    pk.add_argument("kind", choices=["line", "delta", "nabla", "bs"])
    pk.add_argument("spec")
    pk.add_argument("args", nargs="+")
    pk.set_defaults(fn=cmd_kclass)

    add("qanalogue", cmd_qanalogue, ("lam", {}), ("mu", {}))
    add("gamma", cmd_gamma, ("lam", {}), ("nu", {}))

    pt = sub.add_parser("tilt", parents=[common])
    pt.set_defaults(fn=cmd_tilt)
    tilt_sub = pt.add_subparsers(dest="kind", required=True)
    for kind in ("std", "costd", "dominant"):
        p = tilt_sub.add_parser(kind, parents=[common])
        p.add_argument("spec")
        if kind == "dominant":
            p.add_argument("--tilt-char", dest="tilt_char")
        else:
            p.add_argument("charfile")
        p.add_argument("weight")

    add("reconcile", cmd_reconcile, ("charfile", {}))

    pv = add("verify", cmd_verify)
    pv.add_argument("--radius", type=_nonnegative_int, default=2)
    pv.add_argument("--suite", default="all", choices=[*SUITE_NAMES, "all"])
    return parser


def run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    args.json = getattr(args, "json", False)
    args.cache = getattr(args, "cache", None)
    args.seed = getattr(args, "seed", 0)
    try:
        rs = build_root_system(args.spec)
    except RootSystemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    loaded = load_cache(rs, args.cache)
    try:
        code = args.fn(rs, args)
        save_cache(rs, args.cache, loaded)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    return code


def main():
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout.  Python's documented recipe: point
        # stdout at devnull, so the flush at exit does not fail again, and
        # exit with the status a shell reports after SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)
    sys.exit(code)


if __name__ == "__main__":
    main()
