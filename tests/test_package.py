"""Tests of the package namespace."""

import os
import subprocess
import sys
from pathlib import Path

import pairq


def test_every_exported_name_resolves():
    missing = [name for name in pairq.__all__ if not hasattr(pairq, name)]
    assert missing == []


def _loaded_modules(imports: str) -> set[str]:
    """The modules a fresh interpreter has loaded after ``imports``, with
    this ``pairq`` first on its path."""
    code = f"import sys; {imports}; print(' '.join(sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(Path(pairq.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], check=True, env=env,
                         capture_output=True, text=True).stdout
    return set(out.split())


def test_import_loads_no_hashing_modules_beyond_numpy():
    hashing = {"secrets", "hmac", "hashlib", "_hashlib"}
    extra = _loaded_modules("import numpy, pairq") - _loaded_modules("import numpy")
    assert extra & hashing == set()
