"""Structural tests for every PolyBench kernel encoding."""

import os
import subprocess
import sys
import textwrap

import pytest
import sympy

from repro.ir import CDAG, DFG
from repro.polybench import all_kernels, get_kernel, kernel_names
from repro.sets import sym


ALL_NAMES = kernel_names()


class TestRegistry:
    def test_thirty_kernels_registered(self):
        assert len(ALL_NAMES) == 30

    def test_expected_names_present(self):
        expected = {
            "2mm", "3mm", "adi", "atax", "bicg", "cholesky", "correlation",
            "covariance", "deriche", "doitgen", "durbin", "fdtd-2d",
            "floyd-warshall", "gemm", "gemver", "gesummv", "gramschmidt",
            "heat-3d", "jacobi-1d", "jacobi-2d", "lu", "ludcmp", "mvt",
            "nussinov", "seidel-2d", "symm", "syr2k", "syrk", "trisolv", "trmm",
        }
        assert set(ALL_NAMES) == expected

    def test_get_kernel_roundtrip(self):
        for spec in all_kernels():
            assert get_kernel(spec.name) is spec

    def test_concurrent_first_load_sees_every_kernel(self):
        # A fresh interpreter, so the registry is cold: 8 threads released
        # together must each see all 30 kernels, not a half-imported registry.
        script = textwrap.dedent(
            """
            import threading
            from repro.polybench import kernel_names

            barrier = threading.Barrier(8)
            counts = []

            def worker():
                barrier.wait()
                counts.append(len(kernel_names()))

            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            print(counts)
            """
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        completed = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == str([30] * 8)


@pytest.mark.parametrize("name", ALL_NAMES)
class TestEveryKernel:
    def test_program_builds_and_validates(self, name):
        spec = get_kernel(name)
        program = spec.program
        assert program.statements, name
        assert program.dependences, name

    def test_paper_reference_expressions_parse(self, name):
        spec = get_kernel(name)
        assert spec.paper_oi_upper_expr() is not None
        assert spec.paper_oi_manual_expr() is not None

    def test_large_instance_covers_all_params(self, name):
        spec = get_kernel(name)
        assert set(spec.large_instance) == set(spec.program.params)

    def test_input_size_and_flops_are_nonzero(self, name):
        spec = get_kernel(name)
        instance = {p: 50 for p in spec.program.params}
        input_size = spec.program.input_size().subs({sym(k): v for k, v in instance.items()})
        flops = spec.program.total_flops().subs({sym(k): v for k, v in instance.items()})
        assert input_size > 0
        assert flops > 0

    def test_dfg_has_statement_nodes(self, name):
        spec = get_kernel(name)
        dfg = DFG.from_program(spec.program)
        assert dfg.statement_nodes()
        assert dfg.topological_statements()


SMALL_INSTANCES = {
    "2mm": {"Ni": 3, "Nj": 3, "Nk": 3, "Nl": 3},
    "3mm": {"Ni": 3, "Nj": 3, "Nk": 3, "Nl": 3, "Nm": 3},
    "adi": {"T": 4, "N": 5},
    "atax": {"M": 4, "N": 4},
    "bicg": {"M": 4, "N": 4},
    "cholesky": {"N": 6},
    "correlation": {"M": 4, "N": 4},
    "covariance": {"M": 4, "N": 4},
    "deriche": {"W": 4, "H": 4},
    "doitgen": {"Nr": 3, "Nq": 3, "Np": 3},
    "durbin": {"N": 6},
    "fdtd-2d": {"T": 3, "Nx": 4, "Ny": 4},
    "floyd-warshall": {"N": 4},
    "gemm": {"Ni": 3, "Nj": 3, "Nk": 3},
    "gemver": {"N": 4},
    "gesummv": {"N": 4},
    "gramschmidt": {"M": 4, "N": 4},
    "heat-3d": {"T": 3, "N": 5},
    "jacobi-1d": {"T": 4, "N": 8},
    "jacobi-2d": {"T": 3, "N": 6},
    "lu": {"N": 6},
    "ludcmp": {"N": 6},
    "mvt": {"N": 4},
    "nussinov": {"N": 6},
    "seidel-2d": {"T": 3, "N": 6},
    "symm": {"M": 4, "N": 4},
    "syr2k": {"N": 4, "M": 4},
    "syrk": {"N": 4, "M": 4},
    "trisolv": {"N": 6},
    "trmm": {"M": 4, "N": 4},
}


@pytest.mark.parametrize("name", ALL_NAMES)
def test_cdag_expansion_is_consistent(name):
    """The explicit CDAG must be a DAG whose edge functions stay in-domain."""
    spec = get_kernel(name)
    params = SMALL_INSTANCES[name]
    cdag = CDAG.expand(spec.program, params)
    assert cdag.compute_vertices(), name
    # acyclicity (topological_order raises on cycles)
    order = cdag.topological_order()
    assert len(order) == cdag.graph.number_of_nodes()


@pytest.mark.parametrize("name", ALL_NAMES)
def test_symbolic_statement_counts_match_enumeration(name):
    """card(statement domain) must agree with enumeration at a small instance."""
    from repro.sets import CountingError, card, card_at

    spec = get_kernel(name)
    params = SMALL_INSTANCES[name]
    for statement in spec.program.statements.values():
        try:
            symbolic = card(statement.domain)
        except CountingError:
            continue
        value = int(symbolic.subs({sym(k): v for k, v in params.items()}))
        assert value == card_at(statement.domain, params), (name, statement.name)
