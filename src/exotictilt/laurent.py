"""Sparse Laurent polynomials in one variable v, with exact integer
coefficients, and finite Z[v,v^-1]-combinations of basis keys.

Coefficients live in a plain dict {exponent: coefficient} (or {key: poly});
zeros are never stored.  Instances are immutable by convention: all
operations return fresh objects.
"""

from __future__ import annotations

import operator


class LaurentPoly:
    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        if coeffs:
            self.c = {e: c for e, c in coeffs.items() if c != 0}
        else:
            self.c = {}

    # -- constructors -------------------------------------------------------

    @classmethod
    def v(cls, exp: int = 1, coeff: int = 1) -> "LaurentPoly":
        """coeff * v**exp"""
        return cls({exp: coeff})

    @classmethod
    def from_pairs(cls, pairs) -> "LaurentPoly":
        c = {}
        for e, coeff in pairs:
            c[e] = c.get(e, 0) + coeff
        return cls(c)

    # -- ring structure -----------------------------------------------------

    def __bool__(self):
        return bool(self.c)

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.c == other.c

    def __hash__(self):
        # a constant equals its int, so it hashes as that int (zero as 0)
        c = self.c
        if not c:
            return 0
        if len(c) == 1 and 0 in c:
            return hash(c[0])
        return hash(frozenset(c.items()))

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self.c.items()})

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        out = dict(self.c)
        for e, c in other.c.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        res = LaurentPoly()
        res.c = out
        return res

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return ZERO
            return LaurentPoly({e: c * other for e, c in self.c.items()})
        out = {}
        for e1, c1 in self.c.items():
            for e2, c2 in other.c.items():
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        res = LaurentPoly()
        res.c = out
        return res

    __rmul__ = __mul__

    # -- queries and transforms ----------------------------------------------

    def __call__(self, x: int) -> int:
        """Evaluate at the integer v = x.  A negative power needs x = 1 or
        x = -1, where v^-1 = v; at any other x it raises ValueError."""
        x = operator.index(x)
        if x != 1 and x != -1 and self.c and min(self.c) < 0:
            raise ValueError(f"cannot evaluate negative powers of v at {x}")
        # every exponent is >= 0 here unless x = x^-1
        return sum(c * x ** abs(e) for e, c in self.c.items())

    def shift(self, k: int) -> "LaurentPoly":
        """v**k * self."""
        res = LaurentPoly()
        res.c = {e + k: c for e, c in self.c.items()}
        return res

    def compose_power(self, k: int) -> "LaurentPoly":
        """Substitute v -> v**k (k a nonzero integer, e.g. 2 or -2)."""
        return LaurentPoly({e * k: c for e, c in self.c.items()})

    def is_nonneg(self) -> bool:
        return all(c >= 0 for c in self.c.values())

    def max_exp(self):
        return max(self.c) if self.c else None

    def min_exp(self):
        return min(self.c) if self.c else None

    def pairs(self):
        """Sorted [exponent, coefficient] pairs (canonical JSON form)."""
        return [[e, self.c[e]] for e in sorted(self.c)]

    def __str__(self):
        if not self.c:
            return "0"
        parts = []
        for e in sorted(self.c, reverse=True):
            c = self.c[e]
            if e == 0:
                term = str(abs(c))
            else:
                vpow = "v" if e == 1 else f"v^{e}"
                term = vpow if abs(c) == 1 else f"{abs(c)}*{vpow}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self):
        return f"LaurentPoly({self.c!r})"


ZERO = LaurentPoly()
ONE = LaurentPoly({0: 1})
V = LaurentPoly({1: 1})
VINV = LaurentPoly({-1: 1})
VINV_MINUS_V = LaurentPoly({-1: 1, 1: -1})
V_MINUS_VINV = LaurentPoly({1: 1, -1: -1})


class Combination:
    """Finite Z[v,v^-1]-linear combination of hashable basis keys: the
    elements T_x of the Hecke algebra (``heckebraid.HeckeElement``) and the
    classes m_lam of the K-module (``exotic_k.KClass``)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {k: p for k, p in (terms or {}).items() if p}

    @classmethod
    def basis(cls, key) -> "Combination":
        return cls({key: ONE})

    def __eq__(self, other):
        return isinstance(other, Combination) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        out = dict(self.terms)
        for k, p in other.terms.items():
            _accumulate(out, k, p)
        return Combination(out)

    def __sub__(self, other):
        out = dict(self.terms)
        for k, p in other.terms.items():
            _accumulate(out, k, -p)
        return Combination(out)

    def scale(self, poly) -> "Combination":
        """Multiply every coefficient by a LaurentPoly or an int."""
        return Combination({k: p * poly for k, p in self.terms.items()})

    def coefficient(self, key) -> LaurentPoly:
        return self.terms.get(key, ZERO)

    def is_nonneg(self) -> bool:
        return all(p.is_nonneg() for p in self.terms.values())

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"Combination({len(self.terms)} terms)"


def _accumulate(out, key, p):
    """out[key] += p in a {key: poly} dict, dropping the key when the sum is 0."""
    s = out.get(key)
    s = p if s is None else s + p
    if s:
        out[key] = s
    else:
        out.pop(key, None)
