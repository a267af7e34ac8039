"""``import gme`` loads numpy and nothing heavier: every solver runs without scipy.

Each test runs a fresh interpreter, since the test process itself has scipy
loaded by the reference copies in other test modules.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_fresh(code: str) -> str:
    """Standard output of ``code`` in a new interpreter with ``src`` on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120, check=False
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_solvers_run_with_scipy_blocked():
    out = run_fresh(
        """
import math, sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import gme, gme.cli

w3 = gme.SymmetricDickeState(3, [0.0, 1.0, 0.0, 0.0])
t = 1.0 / math.sqrt(3.0)
values = [
    gme.gm_dicke_nonneg(w3).G_squared,
    gme.gm_sym3q(gme.SymThreeQubitCanonical(0.0, t, 0.0, 0.0)).G_squared,
    gme.g_numeric(gme.RankTwoCanonical(math.pi / 4, math.pi / 4, [0.0, 0.0, -1.0 / 3.0])),
    gme.scan_global_min(32).min_g,
    gme.gm_pure_oracle(gme.dicke_to_dense(w3)).G_squared,
]
print(" ".join(repr(v) for v in values))
"""
    )
    values = [float(v) for v in out.split()]
    assert len(values) == 5
    assert abs(values[0] - 4.0 / 9.0) <= 1e-12
    assert all(abs(v - 4.0 / 9.0) <= 1e-9 for v in values[1:])


def test_import_leaves_scipy_unloaded():
    out = run_fresh("import sys, gme, gme.cli; print('scipy' in sys.modules)")
    assert out.strip() == "False"


def test_minimize_binds_lazily_into_module_globals():
    # the benchmark tracer finds the binding it patches through vars(module)
    out = run_fresh(
        """
import gme._optim, scipy.optimize
before = "minimize" in vars(gme._optim)
bound = gme._optim.minimize
print(before, bound is scipy.optimize.minimize, "minimize" in vars(gme._optim))
"""
    )
    assert out.split() == ["False", "True", "True"]
