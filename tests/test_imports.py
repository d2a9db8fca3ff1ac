"""Importing the CLI loads only the scipy subpackages a run needs."""

import os
import subprocess
import sys
from pathlib import Path

import trdlab

# only the Picard ODE oracle (scipy.integrate, which pulls in scipy.sparse,
# scipy.optimize and scipy.linalg) and the tests' reference operators use these
HEAVY = ("scipy.integrate", "scipy.sparse")


def test_cli_import_leaves_heavy_scipy_subpackages_unloaded():
    src = str(Path(trdlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = f"import sys, trdlab.cli; print(*[m for m in {HEAVY!r} if m in sys.modules])"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.split() == []
