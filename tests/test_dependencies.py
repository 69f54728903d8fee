"""The package runs on numpy alone; scipy is needed only by BO and MACE.

``setup.py`` declares numpy as the one runtime dependency and scipy as the
``bo`` extra.  Each check runs in a fresh interpreter, because the test
process has already imported the test dependencies.
"""

import json
import os
import subprocess
import sys

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

THIRD_PARTY = """
import sys

def third_party(name):
    top = name.partition(".")[0]
    return top not in sys.stdlib_module_names and top not in ("numpy", "repro")
"""

# Installed as the first meta-path finder, this makes the interpreter behave
# as if numpy were the only package installed.
ONLY_NUMPY = THIRD_PARTY + """
class OnlyNumpy:
    def find_spec(self, name, path=None, target=None):
        if third_party(name):
            top = name.partition(".")[0]
            raise ModuleNotFoundError(f"No module named {top!r}", name=top)
        return None

sys.meta_path.insert(0, OnlyNumpy())
"""


def run_python(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    return result.stdout.strip().splitlines()[-1]


def test_entry_points_import_no_package_but_numpy():
    imported = run_python(
        THIRD_PARTY
        + """
import numpy

before = set(sys.modules)
import repro.cluster
import repro.experiments.__main__
import repro.service

print(sorted({name.partition(".")[0] for name in set(sys.modules) - before if third_party(name)}))
"""
    )
    assert imported == "[]"


def test_paper_methods_run_with_numpy_alone():
    outcome = run_python(
        ONLY_NUMPY
        + """
import json
from repro.experiments.runner import run_method

outcome = {}
for method in ("human", "random", "es", "gcn_rl", "bo", "mace"):
    try:
        outcome[method] = run_method(method, "two_tia", steps=12, seed=0).best_reward
    except ModuleNotFoundError as exc:
        outcome[method] = f"missing {exc.name}"
print(json.dumps(outcome))
"""
    )
    outcome = json.loads(outcome)
    for method in ("human", "random", "es", "gcn_rl"):
        assert isinstance(outcome[method], float), (method, outcome[method])
    # BO's and MACE's Gaussian process first fits after the 10-design
    # initial batch, which is when scipy is imported.
    assert outcome["bo"] == "missing scipy"
    assert outcome["mace"] == "missing scipy"
