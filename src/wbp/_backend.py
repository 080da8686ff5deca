"""Kernel backend selection.

The compiled core is preferred when it imported cleanly; set the
environment variable ``WBP_PURE_PYTHON=1`` to force the numpy fallback.
Both backends produce bit-identical results (verified by the test suite),
so the choice only affects speed.
"""

import os

from . import _core_numpy

if os.environ.get("WBP_PURE_PYTHON"):
    _impl = _core_numpy
else:
    try:
        from . import _core as _impl  # type: ignore[no-redef]
    except ImportError:
        _impl = _core_numpy

BACKEND = _impl.BACKEND

split_pair_children = _impl.split_pair_children
scaled_children = _impl.scaled_children


def available_backends():
    """Names of the kernel backends importable in this environment."""
    names = ["numpy"]
    try:
        from . import _core  # noqa: F401
        names.append("cython")
    except ImportError:
        pass
    return names
