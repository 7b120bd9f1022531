"""Name of the kernel backend.

``treecover._kernelpy`` is the package's only kernel. This module keeps the
one entry point that benchmark reports read to label their runs.
"""

from __future__ import annotations

from . import _kernelpy


def backend_name() -> str:
    return _kernelpy.BACKEND
