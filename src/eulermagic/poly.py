"""Sparse multivariate polynomial arithmetic over exact rationals.

A polynomial carries an explicit, ordered variable context.  Terms are a
mapping from exponent vectors to nonzero coefficients; all arithmetic is
exact, and two polynomials are equal iff their contexts and term maps are
structurally equal.  Coefficients are ints or Fractions (an integer-valued
Fraction is stored as an int, which keeps the common all-integer case fast).

Rendering uses a canonical graded-lexicographic term order and round-trips
through parse_poly.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import add
from typing import Dict, Iterable, Mapping, Sequence, Tuple, Union

from .matrices import _SlotRecord, exact_rationals, parse_rational

Coeff = Union[int, Fraction]
Exponents = Tuple[int, ...]

__all__ = [
    "MultiPoly",
    "parse_poly",
]


def _norm_coeff(c: Coeff) -> Coeff:
    """Keep integer-valued coefficients as plain ints: a bool or other int
    subclass, or a Fraction with denominator 1, becomes an int."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return int(c)
        return c
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")


def _grlex_key(exponents: Exponents):
    """Sort key for descending graded-lexicographic order."""
    return (-sum(exponents), tuple(-e for e in exponents))


class MultiPoly(_SlotRecord):
    """A sparse polynomial over an ordered tuple of named variables."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[Exponents, Coeff] = {}):
        self.variables, self.terms = variables, terms
        self.__post_init__()

    def __post_init__(self):
        # the one normalisation point: every operation hands its raw sums
        # here, which drops zero coefficients and stores integral ones as int
        names = tuple(self.variables)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in context {names}")
        cleaned = {}
        for exps, c in self.terms.items():
            if len(exps) != len(names):
                raise ValueError(
                    f"exponent vector {exps} does not match context of arity {len(names)}"
                )
            if type(c) is not int:
                c = _norm_coeff(c)
            if c:
                cleaned[tuple(exps)] = c
        self.variables, self.terms = names, cleaned

    __hash__ = None  # the term dict is mutable

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @staticmethod
    def zero(variables: Sequence[str]) -> "MultiPoly":
        return MultiPoly(tuple(variables), {})

    @staticmethod
    def constant(variables: Sequence[str], value: Coeff) -> "MultiPoly":
        variables = tuple(variables)
        return MultiPoly(variables, {(0,) * len(variables): value})

    @staticmethod
    def variable(variables: Sequence[str], name: str) -> "MultiPoly":
        variables = tuple(variables)
        if name not in variables:
            raise ValueError(f"unknown variable {name!r} in context {variables}")
        exps = tuple(1 if v == name else 0 for v in variables)
        return MultiPoly(variables, {exps: 1})

    @staticmethod
    def variables_of(variables: Sequence[str]) -> Tuple["MultiPoly", ...]:
        """All generators of the context, in order."""
        return tuple(MultiPoly.variable(variables, v) for v in variables)

    # ------------------------------------------------------------------
    # basic structure
    # ------------------------------------------------------------------
    def _index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise ValueError(f"unknown variable {name!r} in context {self.variables}") from None

    def _check_context(self, other: "MultiPoly") -> None:
        if self.variables != other.variables:
            raise ValueError(
                f"variable context mismatch: {self.variables} vs {other.variables}"
            )

    # ------------------------------------------------------------------
    # ring operations
    # ------------------------------------------------------------------
    def __add__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.variables, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_context(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            out[exps] = out.get(exps, 0) + c
        return MultiPoly(self.variables, out)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.variables, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "MultiPoly":
        return (-self) + other

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            return MultiPoly(self.variables, {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_context(other)
        out: Dict[Exponents, Coeff] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(map(add, e1, e2))
                out[exps] = out.get(exps, 0) + c1 * c2
        return MultiPoly(self.variables, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = MultiPoly.constant(self.variables, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # ------------------------------------------------------------------
    # coefficient extraction and substitution
    # ------------------------------------------------------------------
    def degree_in(self, name: str) -> int:
        """Max exponent of the named variable; -1 for the zero polynomial."""
        i = self._index(name)
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def coefficient_of(self, name: str, k: int) -> "MultiPoly":
        """The polynomial multiplying name**k, in the same context."""
        i = self._index(name)
        if k < 0:
            raise ValueError("exponent must be nonnegative")
        out: Dict[Exponents, Coeff] = {}
        for exps, c in self.terms.items():
            if exps[i] == k:
                reduced = exps[:i] + (0,) + exps[i + 1:]
                out[reduced] = out.get(reduced, 0) + c
        return MultiPoly(self.variables, out)

    def substitute(self, name: str, value) -> "MultiPoly":
        """Substitute a rational or a same-context polynomial for a variable:
        the sum of coefficient_of(name, k) * value**k."""
        if isinstance(value, MultiPoly):
            self._check_context(value)
        elif not isinstance(value, (int, Fraction)):
            raise TypeError(f"cannot substitute value of type {type(value).__name__}")
        return sum((self.coefficient_of(name, k) * value**k
                    for k in range(self.degree_in(name) + 1)), MultiPoly.zero(self.variables))

    def eval(self, point: Mapping[str, Coeff]) -> Coeff:
        """Exact evaluation; every variable must be assigned one of the
        exact_rationals."""
        values = []
        for v in self.variables:
            if v not in point:
                raise ValueError(f"missing assignment for variable {v!r}")
            values.append(point[v])
        values = exact_rationals(values, "point values")
        total: Coeff = 0
        for exps, c in self.terms.items():
            t = c
            for val, k in zip(values, exps):
                if k:
                    t *= val**k
            total += t
        return _norm_coeff(total)

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def sorted_terms(self) -> Iterable[Tuple[Exponents, Coeff]]:
        for exps in sorted(self.terms, key=_grlex_key):
            yield exps, self.terms[exps]

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for exps, c in self.sorted_terms():
            factors = []
            for v, e in zip(self.variables, exps):
                if e == 1:
                    factors.append(v)
                elif e > 1:
                    factors.append(f"{v}^{e}")
            mono = "*".join(factors)
            mag = abs(c)
            if mono and mag == 1:
                body = mono
            elif mono:
                body = f"{mag}*{mono}"
            else:
                body = f"{mag}"
            pieces.append(("-" if c < 0 else "+", body))
        sign0, body0 = pieces[0]
        out = ("-" if sign0 == "-" else "") + body0
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MultiPoly({','.join(self.variables)}: {self})"


_POWER = re.compile(r"\d+")


def parse_poly(text: str, variables: Sequence[str]) -> MultiPoly:
    """Parse the rendering produced by str(MultiPoly) back into a polynomial.

    Terms are separated as str writes them, by " + " or " - ", with an
    optional "-" before the first; any other sign or spacing is a ValueError.
    Numbers are read by matrices.parse_rational, so exponent notation and a
    zero denominator are ValueErrors, and a power must be a nonnegative
    decimal integer."""
    variables = tuple(variables)
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial text")
    if s == "0":
        return MultiPoly.zero(variables)
    tokens = s[1:].split(" ") if s[0] == "-" else s.split(" ")
    signs, chunks = ["-" if s[0] == "-" else "+"] + tokens[1::2], tokens[::2]
    if any(sign not in ("+", "-") for sign in signs):
        raise ValueError(f"malformed term in {text!r}")
    if len(signs) > len(chunks):
        raise ValueError(f"dangling sign in {text!r}")
    terms: Dict[Exponents, Coeff] = {}
    for sign, chunk in zip(signs, chunks):
        if not chunk or chunk[0] in "+-":
            raise ValueError(f"malformed term in {text!r}")
        coeff: Coeff = -1 if sign == "-" else 1
        exps = [0] * len(variables)
        for factor in chunk.split("*"):
            if not factor:
                raise ValueError(f"malformed term in {text!r}")
            if factor[0].isdigit():
                coeff = coeff * parse_rational(factor)
            else:
                name, caret, power = factor.partition("^")
                if name not in variables:
                    raise ValueError(f"unknown variable {name!r} in {text!r}")
                if caret and not _POWER.fullmatch(power):
                    raise ValueError(f"malformed power {factor!r} in {text!r}")
                exps[variables.index(name)] += int(power) if caret else 1
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + coeff
    return MultiPoly(variables, terms)
