"""Environment for the child interpreters that tests spawn.

pytest's ``pythonpath`` setting (``src`` and the repo root) only edits
this process's ``sys.path``; a child started with ``sys.executable``
would not see it and could not import ``repro`` from a checkout that was
never installed.  :func:`child_env` hands the parent's import path down
as ``PYTHONPATH``.
"""

from __future__ import annotations

import os
import sys


def child_env(**overrides: str) -> dict[str, str]:
    """``os.environ`` plus *overrides*, with the parent's ``sys.path`` as ``PYTHONPATH``."""
    env = dict(os.environ, **overrides)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    return env
