"""The tests import lgasym from src/ (pytest's pythonpath setting); the CLI
runs they start as child processes find it there too."""

import os
import pathlib

_SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
