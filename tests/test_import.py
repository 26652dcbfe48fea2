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
