"""Fresh-interpreter checks of the CLI.  It runs on numpy alone for normal
operators; scipy is loaded only for the matrix exponential of a non-normal
memory operator, and ``dataclasses`` never; a run starts no thread.  Only the process entry touches
the garbage collector.  Every module of the package keeps its underscore
names to itself, the package's public names and constructors are pinned,
and every public name has a reader; every name the benchmark reads is public,
and every function its layers time exists, but a pinned stale few."""
import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import fiarma_lab

PACKAGE = Path(fiarma_lab.__file__).resolve().parent
SRC = str(PACKAGE.parent)

GRID = {"points": [0.0, 1.0], "weights": [0.5, 0.5]}
RUN = {
    "T": 32, "K_trunc": 16, "K": 8, "n_freq": 64, "lags": 2, "shell_points": 16, "n_refine": 6
}


def _config(**model) -> str:
    model = {"sigma": [[1.0, 0.2], [0.2, 0.5]], **model}
    return json.dumps({"grid": GRID, "model": model, "run": RUN})


HERMITIAN_D = _config(D=[[0.2, 0.05], [0.05, 0.1]])
HERMITIAN_N = _config(N=[[0.7, 0.05], [0.05, 0.8]])
REFUSED_D = _config(D=[[0.6, 0.0], [0.0, 0.1]])
NONNORMAL_D = _config(D=[[0.2, 0.1], [0.0, 0.1]])
FRAMELESS_N = _config(N=[[0.8, 0.2], [0.0, 0.9]])
MALFORMED = '{"grid": {"points": [0.0]}}'

# (subcommand, config, expected exit code)
RUNS = [
    ("simulate", HERMITIAN_D, 0),
    ("density", HERMITIAN_D, 0),
    ("autocov", HERMITIAN_D, 0),
    ("frac-coeffs", HERMITIAN_D, 0),
    ("check-existence", HERMITIAN_D, 0),
    ("existence-integral", HERMITIAN_D, 0),
    ("periodogram", HERMITIAN_D, 0),
    ("duker-decompose", HERMITIAN_N, 0),
    ("duker-verify", HERMITIAN_N, 0),
    ("simulate", HERMITIAN_N, 0),
    ("periodogram", HERMITIAN_N, 0),
    ("density", HERMITIAN_N, 1),
    ("simulate", REFUSED_D, 2),
    ("density", MALFORMED, 1),
]

# Runs ``main`` over RUNS in one interpreter; prints the exit codes, the
# scipy modules loaded afterwards, whether ``dataclasses`` and
# ``concurrent.futures`` were, and how many threads are running.
SCRIPT = """
import json, sys, threading
from pathlib import Path
from fiarma_lab.cli import main

work = Path(sys.argv[1])
codes = []
for i, (sub, text, _) in enumerate(json.loads(sys.argv[2])):
    cfg = work / f"cfg{i}.json"
    cfg.write_text(text)
    codes.append(main([sub, "--config", str(cfg), "--out", str(work / f"out{i}")]))
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({
    "codes": codes,
    "scipy": scipy,
    "dataclasses": "dataclasses" in sys.modules,
    "futures": "concurrent.futures" in sys.modules,
    "threads": threading.active_count(),
}))
"""


# Runs one command line through ``main`` in process or through the module's
# ``__main__`` block; prints the exit code and the collector's state after it.
ENTRY_SCRIPT = """
import gc, json, runpy, sys
route, argv = sys.argv[1], json.loads(sys.argv[2])
threshold = gc.get_threshold()
try:
    if route == "main":
        from fiarma_lab.cli import main
        code = main(argv)
    else:
        sys.argv = ["fiarma-lab", *argv]
        runpy.run_module("fiarma_lab.cli", run_name="__main__")
        code = "no SystemExit"
except SystemExit as exc:
    code = exc.code
print(json.dumps({
    "code": code,
    "frozen": gc.get_freeze_count(),
    "enabled": gc.isenabled(),
    "threshold_kept": gc.get_threshold() == threshold,
}))
"""


def _fresh(script, *args):
    """The JSON that ``script`` prints last, run with ``args`` in a new interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def _run_fresh(tmp_path, runs):
    return _fresh(SCRIPT, str(tmp_path), json.dumps(runs))


def test_cli_on_normal_operators_loads_no_scipy(tmp_path):
    result = _run_fresh(tmp_path, RUNS)
    assert result["codes"] == [code for _, _, code in RUNS]
    assert result["scipy"] == []
    assert not result["dataclasses"]  # every class is a plain class
    # each run simulates a model once, so nothing is made ahead
    assert result["threads"] == 1
    assert not result["futures"]


def test_non_normal_density_loads_scipy_linalg(tmp_path):
    result = _run_fresh(tmp_path, [("density", NONNORMAL_D, 0)])
    assert result["codes"] == [0]
    assert "scipy.linalg" in result["scipy"]


def test_frameless_decomposition_check_loads_no_scipy(tmp_path):
    """An N without a unitary frame is refused before the check builds its
    power-law filter, whose matrix exponential would load scipy."""
    result = _run_fresh(tmp_path, [("duker-verify", FRAMELESS_N, 1)])
    assert result["codes"] == [1]
    assert result["scipy"] == []


@pytest.mark.parametrize(
    "sub, text, code",
    [
        ("check-existence", HERMITIAN_D, 0),
        ("simulate", REFUSED_D, 2),
        ("density", MALFORMED, 1),
        ("density", None, 1),  # no --config: a usage error
        ("--help", None, 0),
    ],
)
def test_only_the_process_entry_freezes_the_heap(tmp_path, sub, text, code):
    """``main`` in process leaves the collector as it found it; the module's
    ``__main__`` block freezes the import-time heap, keeps the collector
    enabled and exits with the code ``main`` returns."""
    argv = [sub]
    if text is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        argv += ["--config", str(cfg)]
    results = {
        route: _fresh(ENTRY_SCRIPT, route, json.dumps(argv + ["--out", str(tmp_path / route)]))
        for route in ("main", "module")
    }
    assert results["main"] == {"code": code, "frozen": 0, "enabled": True, "threshold_kept": True}
    module = results["module"]
    assert module["code"] == code
    assert module["frozen"] > 0
    assert module["enabled"] and module["threshold_kept"]


def test_console_script_runs_the_process_entry():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(SRC).parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts == {"fiarma-lab": "fiarma_lab.cli:run"}


def _private_sibling_imports(source: str) -> list[str]:
    """``module.name`` of every underscore name that ``source`` imports from
    a sibling module of the package (dunder names such as ``__version__``
    are public)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("fiarma_lab"):
            continue
        for alias in node.names:
            if alias.name.startswith("_") and not alias.name.endswith("__"):
                found.append(f"{node.module or '.'}.{alias.name}")
    return found


def test_private_import_check_sees_both_spellings():
    source = "from .dataio import _atomic_write, write_path\nfrom fiarma_lab.cli import _Parser\n"
    assert _private_sibling_imports(source) == ["dataio._atomic_write", "fiarma_lab.cli._Parser"]
    assert _private_sibling_imports("from . import __version__\nimport numpy._core\n") == []


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_module_imports_a_private_name_of_a_sibling(module):
    """A module's underscore names are its own: no other module of the package imports them."""
    assert _private_sibling_imports((PACKAGE / module).read_text()) == []


# The package's public names: adding or removing one shows as a diff of this list.
PUBLIC_NAMES = [
    "ArmaModel", "CoefficientSequence", "ConfigError",
    "DecompositionCheck", "ExistenceRefusal", "ExistenceReport",
    "FiarmaModel", "FracIntegrationSpec", "HilbertGrid", "IntegralReport", "LinearOperator",
    "ModelConfig", "NonCausalError", "NotNormalError", "NotPSDError",
    "OperatorPolynomial", "PathFormatError", "PowerLawModel", "RunConfig", "SampledPath",
    "SimConfig", "SingularTransferError", "SpectralDensityGrid",
    "ar_inverse_laurent", "autocov_sequence",
    "binomial_ma_coeffs", "check_conditions", "check_duker_conditions",
    "check_invertible_on_circle", "density_frequencies", "duker_decomposition",
    "empirical_autocov", "envelope_bounds", "existence_integral", "fiarma_spectral_density",
    "fourier_frequencies", "frac_ma_coeffs", "from_kernel",
    "identity", "kernel_of", "local_factorization",
    "operator_norm", "parse_config", "periodogram", "power_law_weights", "read_path",
    "simulate_fiarma",
    "sqrt_psd", "verify_longmemory_decomposition", "write_path",
]


def test_public_names_are_pinned():
    """The package exports exactly the listed names besides its modules."""
    names = {
        name for name, value in vars(fiarma_lab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(names) == sorted(PUBLIC_NAMES)


def test_the_benchmark_reads_only_public_names():
    """The benchmark calls the program through the package's public names
    (``fl.name``) and ``fiarma_lab.cli.main``: removing a name that
    ``perfbench/workloads.py`` reads fails here, not only in a benchmark run."""
    tree = ast.parse((Path(SRC).parent / "perfbench" / "workloads.py").read_text())
    reads = {
        ast.unparse(node) for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and ast.unparse(node.value) in ("fl", "fiarma_lab.cli")
    }
    assert {"fiarma_lab.cli.main", "fl.simulate_fiarma"} <= reads
    assert callable(importlib.import_module("fiarma_lab.cli").main)
    names = {name.removeprefix("fl.") for name in reads - {"fiarma_lab.cli.main"}}
    assert names <= set(PUBLIC_NAMES)


# The functions that ``BENCHMARK.json`` times per layer but the package no
# longer defines (ROADMAP item 5): their per-layer figures read 0.  Renaming
# them in the benchmark shrinks this set; deleting another traced function
# grows it, and fails below.
STALE_TRACED_NAMES = {
    "hilbert.is_normal", "hilbert.normal_decompose", "hilbert.operator_power_one_minus_z",
    "simulate.simulate_arma",
}


def test_benchmark_layers_name_the_package_functions():
    """Every ``<module>.<function>.{calls,self_s}`` figure of the benchmark
    names a function of ``fiarma_lab.<module>``, but the pinned stale ones."""
    bench = json.loads((Path(SRC).parent / "BENCHMARK.json").read_text())
    traced = {
        tuple(metric["name"].split(".")[:2]) for metric in bench["per_layer"]
        if metric["name"].count(".") == 2 and metric["name"].endswith((".calls", ".self_s"))
    }
    missing = {
        f"{module}.{name}" for module, name in traced
        if not hasattr(importlib.import_module(f"fiarma_lab.{module}"), name)
    }
    assert missing == STALE_TRACED_NAMES


# The public names that no module of the package reads, each with the reader
# that keeps it: an acceptance test of ``tests/test_acceptance.py`` that
# checks it as a claim of the paper, or the ROADMAP item that will call it.
READERS_OUTSIDE_THE_PACKAGE = {
    "envelope_bounds": "test_c02",
    "ar_inverse_laurent": "test_c03",
    "empirical_autocov": "test_c05",
    "local_factorization": "ROADMAP item 16",
    "read_path": "ROADMAP item 14",
    "from_kernel": "ROADMAP items 7 and 10",
    "kernel_of": "ROADMAP items 7 and 10",
}


def _names_read(tree: ast.Module, skip: str | None = None) -> set[str]:
    """Every name that the module ``tree`` reads, bare or as an attribute,
    outside its top-level function or class named ``skip``; imports and
    assignments do not count."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for top in tree.body
        if not (isinstance(top, (ast.FunctionDef, ast.ClassDef)) and top.name == skip)
        for node in ast.walk(top)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def _unread_public_names() -> set[str]:
    """The public names that no module of the package but ``__init__.py``
    reads, outside the name's own definition."""
    trees = [
        ast.parse(path.read_text()) for path in PACKAGE.glob("*.py") if path.name != "__init__.py"
    ]
    return {
        name for name in PUBLIC_NAMES
        if not any(name in _names_read(tree, skip=name) for tree in trees)
    }


def test_unread_name_check_skips_only_the_own_definition():
    tree = ast.parse("def f(x):\n    return f(x - 1)\n\ny = g.f\nfrom m import h\n")
    assert _names_read(tree, skip="f") == {"g", "f"}
    assert _names_read(tree) == {"f", "g", "x"}


def test_only_the_memory_operator_spec_reads_the_frame_tolerance():
    """D's frame and eigenvalue clusters are found once, by ``FracIntegrationSpec``
    in ``transfer.py``: no other module of the package reads ``NORMAL_TOL``."""
    readers = {
        path.name for path in PACKAGE.glob("*.py")
        if "NORMAL_TOL" in _names_read(ast.parse(path.read_text()))
    }
    assert readers == {"transfer.py"}


def test_every_public_name_has_a_reader():
    """A public name that the package does not read is kept only for a
    reader listed in READERS_OUTSIDE_THE_PACKAGE, and an acceptance test
    named there reads it."""
    assert _unread_public_names() == set(READERS_OUTSIDE_THE_PACKAGE)
    tests = {
        node.name: node
        for node in ast.parse((Path(__file__).parent / "test_acceptance.py").read_text()).body
        if isinstance(node, ast.FunctionDef)
    }
    for name, reader in READERS_OUTSIDE_THE_PACKAGE.items():
        if reader.startswith("test_"):
            (test,) = [node for key, node in tests.items() if key.startswith(reader + "_")]
            assert name in _names_read(ast.Module(body=[test], type_ignores=[])), name


REQUIRED = inspect.Parameter.empty
# The constructor parameters of every public class that is not an exception,
# each positional or keyword, as names, or as ``(name, default)`` pairs.
# ``SampledPath``'s ``meta`` defaults to None, which stands for a new dict.
CONSTRUCTORS = {
    "ArPoles": ["values", "scale", "bound"],
    "ArmaModel": ["phi", "theta", "sigma"],
    "CoefficientSequence": ["data", "grid", ("k_min", 0), ("tail_mass", None)],
    "DecompositionCheck": ["residual", "delta_norms", "rho", "t_len", "k_trunc"],
    "ExistenceReport": [
        "exponents", "masses", "support_tol", "cond_ii", "cond_iii_value", "cond_iv", "cond_v",
        "verdict",
    ],
    "FiarmaModel": ["base", "D"],
    "FilterPlan": ["rows", "t_len", "filter_fft", "real", "meta"],
    "FracIntegrationSpec": ["D"],
    "HilbertGrid": ["points", "weights"],
    "IntegralReport": ["value", "diverges", "shells", "eta", "n_freq", "n_refine", "tail_estimate"],
    "LinearOperator": ["entries", "grid"],
    "ModelConfig": ["model", "run"],
    "OperatorPolynomial": ["grid", ("coeffs", ())],
    "PowerLawModel": ["base", "N"],
    "RunConfig": [
        ("T", 1024), ("K_trunc", 2048), ("seed", 0), ("noise_kind", "auto"),
        ("replication", 0), ("n_freq", 4096), ("eta", 1.0), ("n_refine", 40),
        ("shell_points", 64), ("K", 64), ("lags", 8), ("format", "csv"),
    ],
    "SampledPath": ["values", "grid", ("meta", None)],
    "SimConfig": [
        ("T", 1024), ("K_trunc", 2048), ("seed", 0), ("noise_kind", "auto"), ("replication", 0),
    ],
    "SpectralDensityGrid": ["freqs", "half", "grid"],
}


def test_public_constructors_are_pinned():
    """Every public class keeps its constructor's parameters, kinds and
    defaults; the configs compare by value and stay unhashable, and the
    models hash by identity, as the simulator's per-model state needs."""
    modules = [
        importlib.import_module(f"fiarma_lab.{path.stem}") for path in PACKAGE.glob("[!_]*.py")
    ]
    classes = {
        name: value
        for module in modules
        for name, value in vars(module).items()
        if isinstance(value, type) and not issubclass(value, BaseException)
        and value.__module__ == module.__name__ and not name.startswith("_")
    }
    assert sorted(classes) == sorted(CONSTRUCTORS)
    for name, params in CONSTRUCTORS.items():
        expected = [
            (p, inspect.Parameter.POSITIONAL_OR_KEYWORD, REQUIRED) if isinstance(p, str)
            else (p[0], inspect.Parameter.POSITIONAL_OR_KEYWORD, p[1])
            for p in params
        ]
        signature = inspect.signature(classes[name]).parameters.values()
        assert [(p.name, p.kind, p.default) for p in signature] == expected, name

    sim, run = classes["SimConfig"], classes["RunConfig"]
    assert sim(T=8) == sim(T=8) and sim(T=8) != sim(T=9)
    assert run(K=3) == run(K=3) and run(K=3) != run()
    assert sim() != run()
    for config in (sim(), run()):
        with pytest.raises(TypeError, match="unhashable"):
            hash(config)
    for model in ("ArmaModel", "FiarmaModel", "PowerLawModel"):
        assert classes[model].__eq__ is object.__eq__
        assert classes[model].__hash__ is object.__hash__
