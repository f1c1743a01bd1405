"""The three benchmark workloads: seeded query lists, how to run one query,
its canonical output form, and an independent oracle for its output.

Every function takes ``lib``, a namespace holding the imported exotictilt
layer modules, so that this file imports nothing from the library itself and
the library import can be timed as part of set-up.  Calls always go through
module attributes (``lib.heckebraid.mul_theta``) so that the traced run sees
them.

A query is a JSON-able list whose first two items are its kind and its root
system spec.  Inputs come only from the ``random.Random`` passed in, which
the runner seeds from ``--seed``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os


def _box(rank, lo, hi):
    return [list(c) for c in itertools.product(range(lo, hi + 1), repeat=rank)]


def _balanced(rng, space, count):
    """count draws that cover ``space`` as evenly as possible: whole seeded
    shuffles of it, then part of one more.  Keeps the cost of a query list
    nearly independent of the seed."""
    out = []
    while len(out) < count:
        block = list(space)
        rng.shuffle(block)
        out.extend(block)
    return out[:count]


def _dominant_below(rs, lam):
    """Dominant weights mu <= lam.  Any two comparable dominant weights are
    joined by a chain of dominant weights that differ by positive roots
    (Stembridge), so a walk down by positive roots finds them all."""
    seen = {lam}
    frontier = [lam]
    while frontier:
        nxt = []
        for mu in frontier:
            for root in rs.positive_roots:
                nu = rs.sub(mu, root.coords)
                if nu not in seen and rs.is_dominant(nu):
                    seen.add(nu)
                    nxt.append(nu)
        frontier = nxt
    return sorted(seen)


class Workload:
    name = ""
    # True when every query builds its own root system, so no memo table is
    # shared between queries.
    cold = True

    def make_queries(self, lib, rng):
        raise NotImplementedError

    def prepare(self, lib, queries, tmpdir):
        """Run-wide context (temp files), made again in every set-up."""
        return None

    def start_pass(self, lib, ctx):
        """Fresh per-pass state, as a new script run or process would have."""
        return None

    def execute(self, lib, state, query):
        raise NotImplementedError

    def canonical(self, lib, query, raw):
        raise NotImplementedError

    def check(self, lib, oracle, query, raw) -> bool:
        """Independent check of one output; ``oracle`` is a dict the check may
        use to keep root systems built for checking, apart from any the
        timed run used."""
        raise NotImplementedError

    def pass_stats(self, state) -> dict:
        return {}


def _oracle_rs(lib, oracle, spec):
    rs = oracle.get(spec)
    if rs is None:
        rs = oracle[spec] = lib.rootdata.build_root_system(spec)
    return rs


def _hecke_canonical(xi):
    return [[[list(r) for r in x.w], list(x.t), p.pairs()]
            for x, p in sorted(xi.terms.items())]


def _kclass_canonical(c):
    return [[list(w), p.pairs()] for w, p in sorted(c.terms.items())]


# ---------------------------------------------------------------------------
# hecke: cold library queries in the Hecke algebra and the K-module


class Hecke(Workload):
    name = "hecke"
    cold = True
    SPECS = ("A2", "B2", "G2", "A3")
    PER_CELL = 60

    def make_queries(self, lib, rng):
        queries = []
        for spec in self.SPECS:
            rs = lib.rootdata.build_root_system(spec)
            n = rs.rank
            weyl = sorted([list(r) for r in w.matrix] for w in rs.weyl_group())
            order = lib.affweyl.generator_order(rs)
            count = self.PER_CELL
            # theta_lam * theta_mu with mu dominant: the negative part of
            # lam + mu stays at most 1, which keeps the cost tail bounded.
            pairs = [(a, b) for a in _box(n, -1, 1) for b in _box(n, 0, 1)]
            for lam, mu in _balanced(rng, pairs, count):
                queries.append(["theta_product", spec, lam, mu])
            for lam in _balanced(rng, _box(n, -2, 2), count):
                queries.append(["t_conjugation", spec, lam])
            for _ in range(count):
                x = [rng.choice(weyl), [rng.randint(-1, 1) for _ in range(n)]]
                y = [rng.choice(weyl), [rng.randint(-1, 1) for _ in range(n)]]
                queries.append(["hecke_mul", spec, x, y])
            for lam in _balanced(rng, _box(n, -1, 1), count):
                queries.append(["line_bundle", spec, lam])
            omega_weights = [[0] * n] + [
                [int(i == j) for j in range(n)] for i in range(n)
            ]
            for _ in range(count):
                seq = [rng.choice(order) for _ in range(rng.randint(0, 5))]
                queries.append(["bott_samelson", spec, rng.choice(omega_weights), seq])
        rng.shuffle(queries)
        return queries

    @staticmethod
    def _aff(lib, pair):
        w, t = pair
        return lib.affweyl.AffineElement(tuple(tuple(r) for r in w), tuple(t))

    def execute(self, lib, state, query):
        kind, spec = query[0], query[1]
        rs = lib.rootdata.build_root_system(spec)
        hb = lib.heckebraid
        if kind == "theta_product":
            lam, mu = tuple(query[2]), tuple(query[3])
            return hb.mul_theta(rs, hb.theta(rs, lam), mu)
        if kind == "t_conjugation":
            # right-hand side of T_{t_lam} = T_{v^-1} theta_{v lam} T_{v^-1}^-1
            dom, v, _ = rs.dominant_rep(tuple(query[2]))
            vinv = lib.affweyl.AffineElement(rs.mat_inv(v.matrix), rs.zero())
            rhs = hb.mul_basis_inv(rs, hb.theta(rs, dom), vinv, "right")
            return hb.mul_basis(rs, rhs, vinv, "left")
        if kind == "hecke_mul":
            x, y = self._aff(lib, query[2]), self._aff(lib, query[3])
            basis = hb.HeckeElement.basis
            return hb.hecke_mul(rs, basis(x), basis(y))
        if kind == "line_bundle":
            return lib.exotic_k.line_bundle_class(rs, tuple(query[2]))
        if kind == "bott_samelson":
            omega = lib.affweyl.omega_of_weight(rs, tuple(query[2]))
            return lib.exotic_k.bott_samelson_class(rs, omega, query[3])
        raise ValueError(f"unknown hecke query kind {kind!r}")

    def canonical(self, lib, query, raw):
        if query[0] in ("line_bundle", "bott_samelson"):
            return _kclass_canonical(raw)
        return _hecke_canonical(raw)

    def check(self, lib, oracle, query, raw):
        kind, spec = query[0], query[1]
        rs = _oracle_rs(lib, oracle, spec)
        hb, aw = lib.heckebraid, lib.affweyl
        if kind == "theta_product":
            # theta_lam theta_mu = theta_{lam+mu}
            return raw == hb.theta(rs, rs.add(tuple(query[2]), tuple(query[3])))
        if kind == "t_conjugation":
            return raw == hb.HeckeElement.basis(aw.t_lambda(rs, tuple(query[2])))
        if kind == "hecke_mul":
            # at v = 1 the product is the group product; the left sweep
            # T_x * T_y is a second, independent expansion
            x, y = self._aff(lib, query[2]), self._aff(lib, query[3])
            at1 = {z: p(1) for z, p in raw.terms.items() if p(1)}
            left = hb.mul_basis(rs, hb.HeckeElement.basis(y), x, "left")
            return at1 == {aw.aff_mul(rs, x, y): 1} and raw == left
        if kind == "line_bundle":
            # at v = 1, m_0 . theta_lam is the coset of t_lam
            lam = tuple(query[2])
            at1 = {w: p(1) for w, p in raw.terms.items() if p(1)}
            return at1 == {lam: 1}
        if kind == "bott_samelson":
            # positivity, and each factor (T_s + v) doubles the sum at v = 1
            total = sum(p(1) for p in raw.terms.values())
            return raw.is_nonneg() and total == 2 ** len(query[3])
        return False


# ---------------------------------------------------------------------------
# tilt: warm script-style tilting classes with shared memo tables


class Tilt(Workload):
    name = "tilt"
    cold = False
    BOXES = (("A2", 2), ("B2", 2), ("G2", 2), ("A3", 1), ("B3", 1), ("C3", 1))
    RANK4 = (("D4", [0, 1, 0, 0]), ("A4", [0, 1, 1, 0]),
             ("C4", [0, 1, 0, 0]), ("B4", [1, 0, 0, 0]))
    RECONCILE = (("A2", 2), ("B2", 2), ("G2", 1))

    def make_queries(self, lib, rng):
        # The query set is fixed; the seed sets the order, which decides
        # which query fills a shared memo table and which reuses it.
        queries = []
        for spec, radius in self.BOXES:
            rank = int(spec[1:])
            queries.extend(["tilt", spec, lam] for lam in _box(rank, 0, radius))
        queries.extend(["tilt", spec, lam] for spec, lam in self.RANK4)
        for spec, radius in self.RECONCILE:
            rank = int(spec[1:])
            queries.extend(["reconcile", spec, lam] for lam in _box(rank, 0, radius))
        rng.shuffle(queries)
        return queries

    def prepare(self, lib, queries, tmpdir):
        return sorted({q[1] for q in queries})

    def start_pass(self, lib, ctx):
        return {spec: lib.rootdata.build_root_system(spec) for spec in ctx}

    def execute(self, lib, state, query):
        kind, spec, lam = query[0], query[1], tuple(query[2])
        rs = state[spec]
        if kind == "tilt":
            return lib.tiltmult.dominant_tilting_class(rs, lam)
        if kind == "reconcile":
            cm = lib.charring.CharacterMultiset.of(rs, {lam: 1}, lib.charring.GOOD_BASIS)
            rep = lib.tiltmult.reconcile(rs, cm)
            return rep.status, rep.detail
        raise ValueError(f"unknown tilt query kind {kind!r}")

    def canonical(self, lib, query, raw):
        if query[0] == "tilt":
            return _kclass_canonical(raw)
        status, detail = raw
        return {"status": status, "detail": detail}

    def check(self, lib, oracle, query, raw):
        kind, spec, lam = query[0], query[1], tuple(query[2])
        if kind == "reconcile":
            status, detail = raw
            return status == "match" and not detail
        # the line-bundle filtration of M(lam) (x) O, on a separate root system
        rs = _oracle_rs(lib, oracle, spec)
        ch = lib.charring
        cm = ch.CharacterMultiset.of(rs, {lam: 1}, ch.WEYL_BASIS)
        ek = lib.exotic_k
        return raw == ek.tensor_class(rs, ch.full_weights(rs, cm), ek.m0(rs))


# ---------------------------------------------------------------------------
# cli_qanalogue: one-shot CLI commands with a Kostant cache file


def _wstr(lam):
    return "[" + ",".join(str(a) for a in lam) + "]"


class CliQAnalogue(Workload):
    name = "cli_qanalogue"
    cold = True
    # commands of each kind per spec
    SPECS = {"A3": 5, "B3": 5, "C3": 5, "A4": 3, "B4": 3, "C4": 3, "D4": 3}
    COMMANDS = ("qanalogue", "gamma", "tilt_std", "tilt_costd")
    CACHE_NAME = "kostant-cache.json"

    def make_queries(self, lib, rng):
        # The (top, weight) pairs are the same for every seed; the seed picks
        # the Weyl conjugates of the tilt weights and the order, which decides
        # which command writes the Kostant cache and which reads it.  When the
        # seed drew the pairs, the mix alone moved the latency median by 7 %
        # (interquartile range over 40 seeds).
        queries = []
        for spec, count in self.SPECS.items():
            rs = lib.rootdata.build_root_system(spec)
            if rs.rank <= 3:
                tops = [tuple(c) for c in _box(rs.rank, 0, 1) if any(c)]
            else:
                # Higher tops such as rho cost two to three times as much in
                # rank 4 and would dominate a pass.
                tops = [tuple(int(i == j) for j in range(rs.rank))
                        for i in range(rs.rank)]

            def conjugate(kappa):
                return list(rng.choice(rs.weyl_orbit(tuple(kappa))))

            for c, kind in enumerate(self.COMMANDS):
                for i in range(count):
                    # the commands rotate through the tops and, for each top,
                    # through the dominant weights below it
                    nu = tops[(c * count + i) % len(tops)]
                    if kind == "tilt_costd":
                        # nabla^mu appears when dom(-mu) <= -w0(nu)
                        below = _dominant_below(rs, rs.minus_w0(nu))
                    else:
                        below = _dominant_below(rs, nu)
                    mu = list(below[(c + i) % len(below)])
                    if kind == "qanalogue":
                        queries.append(["qanalogue", spec, list(nu), mu])
                    elif kind == "gamma":
                        queries.append(["gamma", spec, mu, list(nu)])
                    elif kind == "tilt_std":
                        char = {"basis": "Weyl", "mults": [{"weight": list(nu), "count": 1}]}
                        queries.append(["tilt_std", spec, char, conjugate(mu)])
                    else:
                        char = {"basis": "good", "mults": [{"weight": list(nu), "count": 1}]}
                        queries.append(["tilt_costd", spec, char,
                                        [-a for a in conjugate(mu)]])
        for i in range(4):
            queries.append(["qanalogue", "F4", [int(i == j) for j in range(4)], [0] * 4])
        rng.shuffle(queries)
        return queries

    def prepare(self, lib, queries, tmpdir):
        chars = {}
        for q in queries:
            if q[0].startswith("tilt_"):
                key = json.dumps(q[2], sort_keys=True)
                if key not in chars:
                    path = os.path.join(tmpdir, f"char-{len(chars)}.json")
                    with open(path, "w") as fh:
                        fh.write(key)
                    chars[key] = path
        return {"chars": chars, "cache": os.path.join(tmpdir, self.CACHE_NAME)}

    def start_pass(self, lib, ctx):
        with contextlib.suppress(FileNotFoundError):
            os.remove(ctx["cache"])
        return ctx

    def _argv(self, state, query):
        kind, spec = query[0], query[1]
        if kind in ("qanalogue", "gamma"):
            argv = [kind, spec, _wstr(query[2]), _wstr(query[3])]
        else:
            path = state["chars"][json.dumps(query[2], sort_keys=True)]
            argv = ["tilt", kind[len("tilt_"):], spec, path, _wstr(query[3])]
        return argv + ["--json", "--cache", state["cache"]]

    def execute(self, lib, state, query):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lib.cli.run(self._argv(state, query))
        return code, out.getvalue()

    def canonical(self, lib, query, raw):
        code, text = raw
        try:
            return {"exit": code, "out": json.loads(text)}
        except json.JSONDecodeError:
            return {"exit": code, "text": text}

    def check(self, lib, oracle, query, raw):
        code, text = raw
        if code != 0:
            return False
        try:
            pairs = json.loads(text)
        except json.JSONDecodeError:
            return False
        at1 = sum(c for _, c in pairs)
        # M_lam^mu(1) is the weight multiplicity dim V(lam)_mu (Freudenthal)
        kind, spec = query[0], query[1]
        rs = _oracle_rs(lib, oracle, spec)
        mult = lib.charring.freudenthal_mult
        if kind == "qanalogue":
            return at1 == mult(rs, tuple(query[2]), tuple(query[3]))
        if kind == "gamma":
            return at1 == mult(rs, tuple(query[3]), tuple(query[2]))
        mu = tuple(query[3])
        expect = 0
        for rec in query[2]["mults"]:
            nu = tuple(rec["weight"])
            if kind == "tilt_std":
                expect += rec["count"] * mult(rs, nu, mu)
            else:
                expect += rec["count"] * mult(rs, rs.minus_w0(nu), rs.neg(mu))
        return at1 == expect

    def pass_stats(self, state):
        try:
            size = os.path.getsize(state["cache"])
        except OSError:
            size = 0
        return {"cli.cache_bytes": size}


WORKLOADS = {w.name: w for w in (Hecke(), Tilt(), CliQAnalogue())}
