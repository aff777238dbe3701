"""Where the checkout is, and the environment of every process started in it."""

from __future__ import annotations

import os
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def child_env() -> dict:
    """The checkout's sources first on the path, a fixed hash seed, and
    bytecode caching on, as for an installed tool (the first run fills it)."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env
