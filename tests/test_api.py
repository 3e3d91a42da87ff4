"""Public API surface: knobs that have one value in use are constants."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mirrorless

REMOVED = ("gamma", "tol", "t_max", "decay_rel_tol", "null_rel_tol",
           "residual_tol", "n_refine", "bisect_rel_tol")


def test_no_removed_parameters():
    offenders = []
    for name in mirrorless.__all__:
        obj = getattr(mirrorless, name)
        if callable(obj):
            offenders += [f"{name}({p})" for p in inspect.signature(obj).parameters
                          if p in REMOVED]
    assert offenders == []


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
