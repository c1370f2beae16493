"""Every public package root exports only names it really defines.

``__all__`` must list real module attributes, not names some import
hook supplies on demand, and ``from <package> import *`` must run clean
in a fresh interpreter with every warning turned into an error.
"""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import repro

PUBLIC_MODULES = ["repro", "repro.api"] + sorted(
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
)

#: The directory holding the ``repro`` package, for the child interpreter.
SOURCE_ROOT = os.path.dirname(os.path.dirname(repro.__file__))


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_all_names_resolve_and_star_import_is_warning_free(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if name not in vars(module)]
    assert not missing, f"{module_name}.__all__ lists undefined names {missing}"

    env = dict(os.environ, PYTHONPATH=SOURCE_ROOT)
    result = subprocess.run(
        [sys.executable, "-W", "error", "-c", f"from {module_name} import *"],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0, result.stderr
