"""Public API surface: knobs that have one value in use are constants."""

import ast
import dataclasses
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mirrorless

REMOVED = ("gamma", "tol", "t_max", "decay_rel_tol", "null_rel_tol",
           "residual_tol", "n_refine", "bisect_rel_tol", "t_eval",
           "normalized", "i_sat_ref", "signed", "hermitize")


def test_no_removed_parameters():
    offenders = []
    for name in mirrorless.__all__:
        obj = getattr(mirrorless, name)
        if callable(obj):
            offenders += [f"{name}({p})" for p in inspect.signature(obj).parameters
                          if p in REMOVED]
    assert offenders == []


def _name(node):
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.alias):
        return node.name.rsplit(".", 1)[-1]
    return None


def test_eig_route_stays_out_of_the_program():
    # resolvent_spectrum (eig, then a solve with the eigenvector matrix) is
    # the reference of the benchmark and the tests; the program's spectra
    # come from the Schur route
    offenders, eig_in_reference = [], 0
    for path in sorted(Path(mirrorless.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reference = [range(n.lineno, n.end_lineno + 1) for n in ast.walk(tree)
                     if isinstance(n, ast.FunctionDef)
                     and n.name == "resolvent_spectrum"]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) \
                    and _name(node.func) == "resolvent_spectrum":
                offenders.append(
                    f"{path.name}:{node.lineno} calls {_name(node.func)}")
            if _name(node) == "eig":
                if any(node.lineno in r for r in reference):
                    eig_in_reference += 1
                else:
                    offenders.append(f"{path.name}:{node.lineno} uses eig")
    assert offenders == []
    assert eig_in_reference == 1


def test_svd_route_stays_out_of_the_program():
    # steady_state (one SVD per block of L) is the reference of the
    # benchmark and the tests; the program's steady states come from the
    # ground rate matrix, whose values-only SVD in pump_only_steady_state
    # is the one other svd of the package
    offenders, svd_in = [], []
    for path in sorted(Path(mirrorless.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {n.name: range(n.lineno, n.end_lineno + 1)
                   for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)
                   and n.name in ("steady_state", "pump_only_steady_state")}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) \
                    and _name(node.func) == "steady_state":
                offenders.append(f"{path.name}:{node.lineno} calls "
                                 f"steady_state")
            if _name(node) == "svd":
                where = [name for name, lines in allowed.items()
                         if node.lineno in lines]
                if where:
                    svd_in += where
                else:
                    offenders.append(f"{path.name}:{node.lineno} uses svd")
    assert offenders == []
    assert sorted(svd_in) == ["pump_only_steady_state", "steady_state"]


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_definition_is_used_by_the_program_or_the_benchmark():
    # code that only tests call belongs in tests/oracles.py: every function,
    # class and method of the package (dunders aside) is referenced in the
    # package or the benchmark.  A method counts only as an attribute, so a
    # local variable of the same name does not keep it
    package = sorted(Path(mirrorless.__file__).parent.glob("*.py"))
    names, attributes, defined = set(), set(), []
    for path in package + sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
        if path not in package:
            continue
        methods = {id(m): c.name for c in ast.walk(tree)
                   if isinstance(c, ast.ClassDef) for m in c.body}
        defined += [(path.name, methods.get(id(n)), n.name)
                    for n in ast.walk(tree)
                    if isinstance(n, (ast.FunctionDef, ast.ClassDef))
                    and not n.name.startswith("__")]
    unused = [f"{module}:{cls + '.' if cls else ''}{name}"
              for module, cls, name in defined
              if name not in attributes and (cls or name not in names)]
    assert unused == []


def test_layers_use_no_private_name_of_dynamics():
    # the spectra solve on what a Liouvillian holds, its matrix and blocks;
    # they and the transport reach the pump line only through
    # pump_only_steady_state
    offenders = []
    for name in ("spectra.py", "propagation.py"):
        tree = ast.parse((Path(mirrorless.__file__).parent / name)
                         .read_text(encoding="utf-8"))
        offenders += [f"{name}:{node.lineno} {alias.name}"
                      for node in ast.walk(tree)
                      if isinstance(node, ast.ImportFrom)
                      and node.module == "dynamics" and node.level == 1
                      for alias in node.names if alias.name.startswith("_")]
    assert offenders == []
    assert [f.name for f in dataclasses.fields(mirrorless.Liouvillian)] \
        == ["matrix", "dim"]


def test_propagation_steps_without_expm():
    # numeric transport steps the closed form of one grid step; neither the
    # matrix exponential nor anything else of scipy.linalg is needed there
    path = Path(mirrorless.__file__).parent / "propagation.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert [node.lineno for node in ast.walk(tree)
            if _name(node) == "expm" or isinstance(node, ast.ImportFrom)
            and node.module == "scipy.linalg"] == []


@pytest.mark.parametrize("user_value, expected", [(None, "1"), ("2", "2")])
def test_import_pins_blas_threads(user_value, expected):
    # in a fresh process, since numpy is already imported here
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    if user_value is not None:
        env["OPENBLAS_NUM_THREADS"] = user_value
    env["PYTHONPATH"] = str(Path(mirrorless.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", "import mirrorless, os; "
         "print(os.environ['OPENBLAS_NUM_THREADS'], os.environ['OMP_NUM_THREADS'])"],
        env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.split() == [expected, "1"]


def test_cli_import_leaves_out_sparse_and_constants():
    # in a fresh process: the block search and the SI constants need
    # neither scipy.sparse nor scipy.constants
    env = dict(os.environ, PYTHONPATH=str(
        Path(mirrorless.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, mirrorless.cli; print("
         "[m for m in ('scipy.sparse', 'scipy.constants') if m in "
         "sys.modules])"],
        env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.split() == ["[]"]


BENCH = Path(__file__).resolve().parents[1] / "bench"


def _imported_modules(path):
    """Top-level names of the modules a script imports, in source order."""
    nodes = sorted((n for n in ast.walk(ast.parse(path.read_text("utf-8")))
                    if isinstance(n, (ast.Import, ast.ImportFrom))),
                   key=lambda n: (n.lineno, n.col_offset))
    names = []
    for node in nodes:
        if isinstance(node, ast.Import):
            names += [a.name.partition(".")[0] for a in node.names]
        elif node.level == 0:
            names.append(node.module.partition(".")[0])
    return names


@pytest.mark.parametrize("script", sorted(BENCH.glob("*.py")),
                         ids=lambda p: p.name)
def test_bench_scripts_import_mirrorless_before_numpy(script):
    # `import mirrorless` pins BLAS to one thread only if numpy is not loaded
    # yet; a script that imports numpy first times a multithreaded BLAS
    names = _imported_modules(script)
    assert "mirrorless" in names
    early = names[:names.index("mirrorless")]
    assert not {"numpy", "scipy"} & set(early), early


@pytest.mark.parametrize("script", sorted(BENCH.glob("*.py")),
                         ids=lambda p: p.name)
def test_bench_scripts_import(script, monkeypatch):
    # a bench script that imports a name the program no longer has fails
    # here rather than at its next run; the scripts find each other on
    # bench/ and the oracles on tests/, and sys.path is restored afterwards
    monkeypatch.syspath_prepend(str(BENCH.parent / "tests"))
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location(f"bench_{script.stem}",
                                                  script)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))
