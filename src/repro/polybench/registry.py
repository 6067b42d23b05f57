"""Kernel registry for the PolyBench/C 4.2.1 reproduction.

Each kernel is described by a :class:`KernelSpec`: the affine program (in the
single-assignment / flow-dependence form the paper's figures use), the paper's
reference numbers from Table 1 (input size, operation count, OI upper bound
from IOLB, manually derived OI), a representative LARGE-dataset parameter
instance for the Figure 6 experiment, and the analysis options (wavefront
depth) the kernel needs.

Encoding conventions (see DESIGN.md):

* only the value flows that carry reuse are modelled — dropping edges or
  auxiliary scalar statements can only *weaken* the derived lower bound, never
  invalidate it (any schedule of the full program is a schedule of the
  simplified CDAG);
* statement operation counts are chosen so the total matches the paper's
  ``# ops`` column.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable

import sympy

from ..ir import AffineProgram

#: Categories used by Table 1's four divisions.
CATEGORY_TILEABLE = "tileable"          # high reuse, sqrt(S)-like OI upper bound
CATEGORY_LOW_REUSE = "low-reuse"        # #ops / #inputs constant
CATEGORY_WAVEFRONT = "wavefront"        # not tileable, constant OI proved by wavefront
CATEGORY_OVERESTIMATED = "overestimated"  # paper reports a gap (OI_up too optimistic)


@dataclass
class KernelSpec:
    """One PolyBench kernel and its paper reference data."""

    name: str
    category: str
    build: Callable[[], AffineProgram]
    paper_oi_upper: str
    paper_oi_manual: str
    paper_input_size: str
    paper_ops: str
    large_instance: dict[str, int]
    max_depth: int = 0
    notes: str = ""
    _program: AffineProgram | None = field(default=None, repr=False)

    @property
    def program(self) -> AffineProgram:
        if self._program is None:
            self._program = self.build()
        return self._program

    def paper_oi_upper_expr(self) -> sympy.Expr:
        return _parse_paper_expr(self.paper_oi_upper)

    def paper_oi_manual_expr(self) -> sympy.Expr:
        return _parse_paper_expr(self.paper_oi_manual)


def _parse_paper_expr(text: str) -> sympy.Expr:
    """Parse a Table-1 reference formula.

    ``S`` must map to the library's cache-size symbol (plain ``sympify`` would
    resolve the name to sympy's ``S`` singleton registry instead).
    """
    from ..sets import sym

    names = {"S", "N", "M", "T", "Ni", "Nj", "Nk", "Nl", "Nm", "Np", "Nq", "Nr",
             "Nx", "Ny", "W", "H"}
    local_dict = {name: sym(name) for name in names}
    local_dict["sqrt"] = sympy.sqrt
    local_dict["Rational"] = sympy.Rational
    return sympy.sympify(text, locals=local_dict)


_REGISTRY: dict[str, KernelSpec] = {}
_LOAD_LOCK = threading.Lock()
_loaded = False


def register(spec: KernelSpec) -> KernelSpec:
    """Register a kernel spec (called by the kernel modules at import time)."""
    if spec.name in _REGISTRY:
        raise ValueError(f"kernel {spec.name!r} registered twice")
    _REGISTRY[spec.name] = spec
    return spec


def get_kernel(name: str) -> KernelSpec:
    """Look up a kernel by its PolyBench name."""
    _ensure_loaded()
    return _REGISTRY[name]


def all_kernels() -> list[KernelSpec]:
    """All registered kernels, sorted by name."""
    _ensure_loaded()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def kernel_names() -> list[str]:
    _ensure_loaded()
    return sorted(_REGISTRY)


def _ensure_loaded() -> None:
    """Import the kernel modules lazily (they self-register).

    The registry counts as loaded only once every module has finished
    importing: a non-empty ``_REGISTRY`` alone may be one thread's import
    half way through, so concurrent first callers wait on the lock.
    """
    global _loaded
    if _loaded:
        return
    with _LOAD_LOCK:
        if _loaded:
            return
        from . import blas, datamining, solvers, stencils  # noqa: F401

        _loaded = True
