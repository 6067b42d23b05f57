"""Symbolic I/O lower-bound expressions.

The bounds produced by IOLB are functions of the program parameters
(``N``, ``M``, ...) and of the fast-memory capacity ``S``.  This module wraps
the sympy plumbing:

* ``S_SYMBOL`` — the cache-size symbol shared by the whole library;
* :func:`asymptotic_leading` — the "keep only the dominant term" simplification
  used for the right-hand column of Table 2, under the paper's asymptotic
  assumption (all parameters tend to infinity and ``S = o(parameters)``);
* :class:`SubBound` — one lower bound for one sub-CDAG, together with its
  may-spill set (needed by the decomposition lemma);
* :class:`IOBoundResult` — the final result of Algorithm 6 for a program.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import reduce
from typing import Any, Mapping

import sympy

from ..sets import ParamSet, parse_set, sym

#: Fast-memory capacity symbol (number of words that fit in cache/scratchpad).
S_SYMBOL: sympy.Symbol = sym("S")

#: Growth degree assigned to program parameters vs. the cache size when
#: extracting asymptotically dominant terms:  params ~ t**PARAM_DEGREE,
#: S ~ t**S_DEGREE with PARAM_DEGREE > S_DEGREE encodes  S = o(params).
PARAM_DEGREE = 4
S_DEGREE = 2


def growth_degree(term: sympy.Expr, param_names: set[str]) -> sympy.Rational:
    """Growth degree of a monomial (product) under params ~ t^4, S ~ t^2."""
    degree = sympy.Rational(0)
    for base, exponent in term.as_powers_dict().items():
        if not base.free_symbols and not isinstance(base, sympy.Symbol):
            continue
        if isinstance(base, sympy.Symbol):
            if base == S_SYMBOL:
                degree += S_DEGREE * exponent
            elif base.name in param_names:
                degree += PARAM_DEGREE * exponent
        else:
            # Composite base (e.g. (S + 1)**(1/2)): use the degree of its
            # fastest-growing term, times the exponent.
            degree += expression_degree(base, param_names) * exponent
    return degree


def expression_degree(expr: sympy.Expr, param_names: set[str]) -> sympy.Rational:
    """Growth degree of an arbitrary expression (max over its added terms)."""
    expr = expr.replace(sympy.floor, lambda x: x)
    expr = expr.replace(sympy.Max, lambda *args: sympy.Add(*args))
    terms = sympy.Add.make_args(sympy.expand(expr))
    degrees = [growth_degree(term, param_names) for term in terms]
    return max(degrees) if degrees else sympy.Rational(0)


def asymptotic_leading(expr: sympy.Expr, param_names: set[str]) -> sympy.Expr:
    """Keep only the asymptotically dominant term(s) of an expression.

    floor(x) is replaced by x and Max(...) by its dominant argument, matching
    the way the paper turns the complete formulae of Table 2 into the
    asymptotic ones.
    """
    expr = expr.replace(sympy.floor, lambda x: x)
    expr = expr.replace(
        sympy.Max,
        lambda *args: max(args, key=lambda a: expression_degree(a, param_names)),
    )
    expr = sympy.expand(sympy.powsimp(expr))
    return _leading_term(expr, param_names)


def _leading_term(expr: sympy.Expr, param_names: set[str]) -> sympy.Expr:
    expr = sympy.expand(expr)
    terms = sympy.Add.make_args(expr)
    if len(terms) == 1:
        return terms[0]
    best_degree = None
    best_terms: list[sympy.Expr] = []
    for term in terms:
        degree = growth_degree(term, param_names)
        if best_degree is None or degree > best_degree:
            best_degree = degree
            best_terms = [term]
        elif degree == best_degree:
            best_terms.append(term)
    return sympy.Add(*best_terms)


def evaluate(expr: sympy.Expr, instance: Mapping[str, object]) -> float:
    """Numeric value of a bound expression at a parameter/cache-size instance."""
    substitutions = {sym(name): value for name, value in instance.items()}
    value = expr.subs(substitutions)
    return float(sympy.N(value))


#: Version tag of the JSON serialization schema below.
SERIALIZATION_SCHEMA = 1


def expr_to_text(expr: sympy.Expr) -> str:
    """Serialize a sympy expression to its exact ``srepr`` form."""
    return sympy.srepr(sympy.sympify(expr))


_STRING_LITERAL = re.compile(r"'(?:[^'\\]|\\.)*'|\"(?:[^\"\\]|\\.)*\"")
_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: Identifiers that may appear in the ``srepr`` of a bound expression:
#: expression heads, Symbol assumption keywords, and numeric atoms.  Anything
#: else (``__import__``, ``lambda``, attribute names, ...) is rejected before
#: the text reaches ``sympify``, which evaluates its input — result documents
#: may come from untrusted files (shared caches, downloaded suite dumps).
_ALLOWED_SREPR_NAMES = frozenset({
    "Add", "Mul", "Pow", "Symbol", "Integer", "Rational", "Float",
    "Max", "Min", "Abs", "floor", "ceiling", "sqrt",
    "integer", "positive", "negative", "nonnegative", "nonpositive",
    "real", "precision", "True", "False",
    "S", "Half", "One", "Zero", "NegativeOne", "pi", "E",
    "oo", "Infinity", "NegativeInfinity",
})


# A stored Max/Min is the srepr of an evaluated one, so its arguments are
# already pairwise irredundant: rebuilding it unevaluated gives the same
# expression and skips sympy's pairwise redundancy search, which was most
# of the cost of reading a bound back from the store.
_AS_STORED = {
    "Max": lambda *args: sympy.Max(*args, evaluate=False),
    "Min": lambda *args: sympy.Min(*args, evaluate=False),
}


def expr_from_text(text: str) -> sympy.Expr:
    """Rebuild a sympy expression from its ``srepr`` form (exact inverse).

    Symbol names (quoted strings) are arbitrary; every bare identifier must
    be on the srepr allowlist, so a malicious document cannot smuggle code
    through the ``eval`` inside ``sympify``.
    """
    stripped = _STRING_LITERAL.sub("''", text)
    for name in _IDENTIFIER.findall(stripped):
        if name not in _ALLOWED_SREPR_NAMES:
            raise ValueError(
                f"refusing to deserialize expression containing {name!r} "
                "(not a known srepr construct)"
            )
    return sympy.sympify(text, locals=_AS_STORED)


def _pset_to_pieces(domain: ParamSet) -> list[str]:
    """Serialize a ParamSet as one parser-compatible string per piece."""
    return [repr(ParamSet.from_basic(piece)) for piece in domain.pieces]


def _pset_from_pieces(pieces: list[str]) -> ParamSet | None:
    """Rebuild a ParamSet from per-piece strings (None when empty/unparseable).

    Empty sets carry no information for the decomposition lemma, and a piece
    the parser cannot read (none is produced by the current printers) makes
    the whole set unusable — both cases drop the entry rather than guess.
    """
    try:
        parsed = [parse_set(text) for text in pieces]
    except Exception:
        return None
    if not parsed:
        return None
    return reduce(ParamSet.union, parsed)


@dataclass
class SubBound:
    """A lower bound for one sub-CDAG (one output of Alg. 4, Alg. 5 or Sec. 4.3).

    Attributes
    ----------
    expression:
        Complete bound (sympy), possibly containing ``floor`` and ``Max``.
    smooth:
        The same bound without ``floor``/``Max`` — still a valid lower bound
        (floors were only dropped in the safe direction) and easier to sum,
        compare and simplify.
    may_spill:
        Map from statement name to the may-spill vertex set of the sub-CDAG
        (Def. 4.1), used by the decomposition lemma to decide which bounds may
        be added together.
    method:
        ``"kpartition"`` or ``"wavefront"``.
    statement:
        The DFG vertex the derivation was centred on.
    depth:
        Loop-parametrisation depth (0 means no parametrisation).
    """

    expression: sympy.Expr
    smooth: sympy.Expr
    may_spill: dict[str, ParamSet] = field(default_factory=dict)
    method: str = "kpartition"
    statement: str = ""
    depth: int = 0
    notes: str = ""

    def evaluate(self, instance: Mapping[str, object]) -> float:
        return evaluate(self.smooth, instance)

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible representation (sympy expressions via ``srepr``)."""
        return {
            "expression": expr_to_text(self.expression),
            "smooth": expr_to_text(self.smooth),
            "may_spill": {
                statement: _pset_to_pieces(domain)
                for statement, domain in self.may_spill.items()
            },
            "method": self.method,
            "statement": self.statement,
            "depth": self.depth,
            "notes": self.notes,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SubBound":
        may_spill: dict[str, ParamSet] = {}
        for statement, pieces in data.get("may_spill", {}).items():
            domain = _pset_from_pieces(pieces)
            if domain is not None:
                may_spill[statement] = domain
        return cls(
            expression=expr_from_text(data["expression"]),
            smooth=expr_from_text(data["smooth"]),
            may_spill=may_spill,
            method=data.get("method", "kpartition"),
            statement=data.get("statement", ""),
            depth=int(data.get("depth", 0)),
            notes=data.get("notes", ""),
        )


@dataclass
class IOBoundResult:
    """Final result of the IOLB derivation for one program."""

    program_name: str
    parameters: tuple[str, ...]
    expression: sympy.Expr
    smooth: sympy.Expr
    asymptotic: sympy.Expr
    input_size: sympy.Expr
    total_flops: sympy.Expr
    sub_bounds: list[SubBound] = field(default_factory=list)
    log: list[str] = field(default_factory=list)

    def oi_upper_bound(self) -> sympy.Expr:
        """Parametric upper bound on operational intensity: #ops / Q_low.

        The value is a full sympy expand/simplify over the derived bound, so
        it is memoised per instance (``__repr__`` calls it, and suites print
        a repr per kernel per run).  The cache is lazy instance state, not a
        dataclass field: it survives :meth:`from_dict` round-trips (any
        deserialized instance just computes once on first use) and never
        leaks into :meth:`to_dict` or equality.  Mutating ``total_flops``/``asymptotic`` after the first
        call would return the stale value — results are treated as immutable
        everywhere in the library.
        """
        cached = self.__dict__.get("_oi_upper_bound_cache")
        if cached is None:
            params = set(self.parameters)
            ratio = sympy.simplify(
                asymptotic_leading(self.total_flops, params) / self.asymptotic
            )
            cached = asymptotic_leading(sympy.expand(ratio), params | {"S"})
            self.__dict__["_oi_upper_bound_cache"] = cached
        return cached

    def evaluate(self, instance: Mapping[str, object]) -> float:
        """Numeric lower bound at a parameter/cache-size instance."""
        return evaluate(self.smooth, instance)

    def evaluate_oi_upper(self, instance: Mapping[str, object]) -> float:
        flops = evaluate(self.total_flops, instance)
        q_low = max(self.evaluate(instance), 1.0)
        return flops / q_low

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible representation of the full result.

        Sympy expressions are serialized with ``srepr`` so the round-trip is
        exact (including symbol assumptions, ``floor`` and ``Max``); may-spill
        sets are serialized piece-by-piece in the library's set syntax.
        """
        return {
            "schema": SERIALIZATION_SCHEMA,
            "program_name": self.program_name,
            "parameters": list(self.parameters),
            "expression": expr_to_text(self.expression),
            "smooth": expr_to_text(self.smooth),
            "asymptotic": expr_to_text(self.asymptotic),
            "input_size": expr_to_text(self.input_size),
            "total_flops": expr_to_text(self.total_flops),
            "sub_bounds": [bound.to_dict() for bound in self.sub_bounds],
            "log": list(self.log),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "IOBoundResult":
        schema = data.get("schema", SERIALIZATION_SCHEMA)
        if schema != SERIALIZATION_SCHEMA:
            raise ValueError(
                f"unsupported IOBoundResult schema {schema!r} "
                f"(this library reads schema {SERIALIZATION_SCHEMA})"
            )
        return cls(
            program_name=data["program_name"],
            parameters=tuple(data["parameters"]),
            expression=expr_from_text(data["expression"]),
            smooth=expr_from_text(data["smooth"]),
            asymptotic=expr_from_text(data["asymptotic"]),
            input_size=expr_from_text(data["input_size"]),
            total_flops=expr_from_text(data["total_flops"]),
            sub_bounds=[SubBound.from_dict(entry) for entry in data.get("sub_bounds", [])],
            log=list(data.get("log", [])),
        )

    def __repr__(self) -> str:
        return (
            f"IOBoundResult({self.program_name!r}, Q_low ~ {self.asymptotic}, "
            f"OI_up ~ {self.oi_upper_bound()})"
        )
