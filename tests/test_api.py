"""Public API surface: knobs that have one value in use are constants."""

import inspect

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
