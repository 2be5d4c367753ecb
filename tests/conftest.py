"""Suite-wide set-up: the tests that start ``python -m dynhd`` in a
subprocess run the package under ``src/``, the same one that
``pythonpath = ["src"]`` in pyproject.toml gives the tests themselves, so
the suite needs no install."""

import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
             if p])
