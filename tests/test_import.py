import ast
import importlib
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import levydetect

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(levydetect.__file__)))


def test_import_loads_no_scipy():
    """scipy serves only the quadrature cross-checks of levydetect.oracle and
    the gamma ledger, which import it when called; importing the package and
    its CLI loads neither scipy nor the oracle."""
    code = ("import levydetect, levydetect.cli, sys; "
            "print(sorted(k for k in sys.modules if k in ('scipy', 'levydetect.oracle')"
            " or k.startswith('scipy.')))")
    env = dict(os.environ, PYTHONPATH=_SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_reference_route_loads_no_engine():
    """The path route (``sample_changed_path`` -> ``llr_path``) and the
    single-path detector are the engine's independent check, so importing
    them, or the package, loads no part of the engine."""
    code = ("import levydetect, levydetect.paths, levydetect.likelihood, "
            "levydetect.detector, sys; print('levydetect.engine' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=_SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_only_families_names_a_family():
    """A spec's family follows from its sigma and jump measure in
    families.py; every other module picks per-law code from the measure's
    ``finite_activity``, so none reads an attribute named ``family`` or
    compares with a family name. The modules are parsed, not run."""
    names = {"brownian", "compound_poisson", "jump_diffusion", "gamma"}

    def operands(node):
        for op in (node.left, *node.comparators):
            yield from op.elts if isinstance(op, (ast.Tuple, ast.List, ast.Set)) else (op,)

    offenders = []
    for path in sorted(Path(_SRC, "levydetect").glob("*.py")):
        if path.name == "families.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "family" or (
                    isinstance(node, ast.Compare) and any(
                        isinstance(op, ast.Constant) and op.value in names
                        for op in operands(node))):
                offenders.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert offenders == []


def test_import_loads_no_thread_pool():
    """Only a run on more than one thread starts a thread pool, so importing
    the package and its CLI loads neither concurrent.futures nor the logging
    and queue modules it imports."""
    code = ("import levydetect, levydetect.cli, sys; "
            "print(sorted(k for k in sys.modules if k in ('logging', 'queue')"
            " or k.split('.')[0] == 'concurrent'))")
    env = dict(os.environ, PYTHONPATH=_SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_every_export_resolves():
    """Every name in the package's ``__all__`` and in each module's is
    defined, so a stale export fails here, not only under ``import *``."""
    modules = [levydetect] + [importlib.import_module(f"levydetect.{m.name}")
                              for m in pkgutil.iter_modules(levydetect.__path__)
                              if not m.name.startswith("__")]
    assert len(modules) > 10
    stale = [f"{mod.__name__}.{name}" for mod in modules
             for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert stale == []


def test_benchmark_tracer_installs_and_restores(monkeypatch):
    """perfbench/tracer.py wraps package functions by name (detector.run_rule,
    the kernels' scans, the engine and evaluate entry points), so renaming or
    deleting one breaks the benchmark; leaving the block puts the originals
    back."""
    from levydetect import detector, kernels

    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), os.pardir,
                                              "perfbench"))
    from tracer import Tracer

    scan, run_rule = kernels.cusum_scan, detector.run_rule
    with Tracer().installed():
        assert kernels.cusum_scan is not scan
        assert detector.run_rule is not run_rule
    assert kernels.cusum_scan is scan
    assert detector.run_rule is run_rule


@pytest.mark.parametrize("kind,collect_lb,scans_per_draw", [
    ("cusum", False, 1), ("cusum", True, 1), ("sr", False, 1), ("sr", True, 2),
    ("fixed", True, 1)])
def test_benchmark_tracer_counts_each_scan_of_a_drawn_step(brownian_model, monkeypatch,
                                                           kind, collect_lb, scans_per_draw):
    """The tracer counts the size of the first argument of each scan kernel
    as steps scanned: every drawn step is scanned once, twice by the SR rule
    with lower-bound sums (the SR scan and the lower-bound scan)."""
    from levydetect import engine

    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), os.pardir,
                                              "perfbench"))
    from tracer import Tracer

    # the fixed rule of 500 steps: a rule that never stops, run 500 steps
    rule, n_steps = {"cusum": (engine.RuleSpec(kind="cusum", log_barrier=3.0), 600),
                     "sr": (engine.RuleSpec(kind="sr", log_barrier=math.log(150.0)), 600),
                     "fixed": (engine.RuleSpec("cusum", math.inf), 500)}[kind]
    with Tracer().installed() as tracer:
        engine.run_paths(brownian_model, "pre", rule, 0.1, n_steps, 300, 8086, "arl",
                         collect_lb=collect_lb)
    draws = tracer.counts["engine.paths.draws"]
    assert draws > 0 and tracer.counts["engine.chunks"] > 0
    assert tracer.counts["kernels.steps_scanned"] == scans_per_draw * draws
