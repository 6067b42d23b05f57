"""Output checks against references that do not come from the code under test.

The reference bounds are ``tests/polybench/golden_bounds.json``, read only.
Both sides of every comparison are parsed here with plain sympy symbols, so
a change to the library's own parsers cannot make a wrong bound compare
equal.  Each check returns a list of failure messages; an empty list means
the output is right.
"""

from __future__ import annotations

import json
import os
import re

import sympy

GOLDEN = os.path.join("tests", "polybench", "golden_bounds.json")

_FUNCTIONS = {
    "sqrt": sympy.sqrt,
    "Max": sympy.Max,
    "Min": sympy.Min,
    "floor": sympy.floor,
    "ceiling": sympy.ceiling,
    "Rational": sympy.Rational,
}
_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def load_golden(root: str) -> dict:
    with open(os.path.join(root, GOLDEN)) as stream:
        return json.load(stream)


def parse(text: str) -> sympy.Expr:
    """A bound formula with every free name read as a positive symbol."""
    names = {
        name: sympy.Symbol(name, positive=True)
        for name in _IDENTIFIER.findall(text)
        if name not in _FUNCTIONS
    }
    return sympy.sympify(text, locals={**names, **_FUNCTIONS})


class Golden:
    """Symbolic comparison with the golden bounds, memoised per formula."""

    FIELDS = ("asymptotic", "oi_upper")

    def __init__(self, bounds: dict):
        self.bounds = bounds
        self._verdicts: dict[tuple[str, str, str], bool] = {}

    def __len__(self) -> int:
        return len(self.bounds)

    def matches(self, kernel: str, field: str, text: str) -> bool:
        key = (kernel, field, text)
        if key not in self._verdicts:
            expected = self.bounds.get(kernel, {}).get(field)
            verdict = False
            if expected is not None:
                try:
                    verdict = sympy.simplify(parse(text) - parse(expected)) == 0
                except (sympy.SympifyError, TypeError, SyntaxError):
                    verdict = False
            self._verdicts[key] = verdict
        return self._verdicts[key]

    def check_bound(self, kernel: str, outputs: dict) -> list[str]:
        """``outputs`` holds the kernel's ``asymptotic`` and ``oi_upper`` text."""
        return [
            f"{kernel}: {field} {outputs.get(field)!r} differs from golden "
            f"{self.bounds.get(kernel, {}).get(field)!r}"
            for field in self.FIELDS
            if not self.matches(kernel, field, str(outputs.get(field)))
        ]


def check_report_row(row: dict, golden: Golden) -> list[str]:
    """Sandwich, policy order and zero derivations for one report row."""
    kernel = row["kernel"]
    failures = []
    if row.get("error") is not None:
        failures.append(f"{kernel}: report error {row['error']!r}")
    if row.get("derivations") != 0:
        failures.append(f"{kernel}: report derived {row.get('derivations')} bounds, expected 0")
    if not golden.matches(kernel, "asymptotic", str(row.get("lower_asymptotic"))):
        failures.append(f"{kernel}: lower bound {row.get('lower_asymptotic')!r} differs from golden")
    loads = row.get("upper_loads")
    if loads is None or not row["lower_value"] <= loads:
        failures.append(
            f"{kernel}: sandwich broken, Q_low {row['lower_value']} > best loads {loads}"
        )
    by_shape: dict[tuple, dict[str, int]] = {}
    for sim in (row.get("upper") or {}).get("simulations", []):
        if sim["simulated"]:
            by_shape.setdefault(tuple(sim["shape"]), {})[sim["policy"]] = sim["loads"]
    for shape, policies in sorted(by_shape.items()):
        if "opt" in policies and "lru" in policies and policies["opt"] > policies["lru"]:
            failures.append(
                f"{kernel}: Belady loaded {policies['opt']} > LRU {policies['lru']} "
                f"for tile {list(shape)}"
            )
    return failures


def check_serve_payload(kernel: str, payload: dict, golden: Golden) -> list[str]:
    """A ``result`` event's payload, decoded with the library's loader."""
    from repro.core.bounds import IOBoundResult

    try:
        result = IOBoundResult.from_dict(payload)
        outputs = {
            "asymptotic": sympy.sstr(result.asymptotic),
            "oi_upper": sympy.sstr(result.oi_upper_bound()),
        }
    except (KeyError, ValueError, TypeError) as error:
        return [f"{kernel}: result payload does not decode: {error}"]
    return golden.check_bound(kernel, outputs)
