import os
import subprocess
import sys

import levydetect

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(levydetect.__file__)))


def test_import_loads_no_scipy():
    """scipy serves only the quadrature cross-checks and the gamma ledger,
    which import it when called; importing the package and its CLI must not."""
    code = ("import levydetect, levydetect.cli, sys; "
            "print(sorted(k for k in sys.modules if k == 'scipy' or k.startswith('scipy.')))")
    env = dict(os.environ, PYTHONPATH=_SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


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
