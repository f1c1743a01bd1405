import itertools
import os
import pathlib
import subprocess
import sys
from functools import lru_cache

import pytest

from exotictilt import build_root_system


@lru_cache(maxsize=None)
def get_rs(spec):
    """Shared root systems; their memo tables are idempotent caches."""
    return build_root_system(spec)


SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def child_env():
    """os.environ with this checkout's src put first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_python(*argv, **kwargs):
    """Run `python argv` in a child process that imports this checkout's
    src, whatever PYTHONPATH the parent has.  Extra keyword arguments go to
    subprocess.run."""
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, env=child_env(), **kwargs)


def run_cli_process(*argv, **kwargs):
    """Run `python -m exotictilt.cli argv` through run_python."""
    return run_python("-m", "exotictilt.cli", *argv, **kwargs)


@pytest.fixture
def a1():
    return get_rs("A1")


@pytest.fixture
def a2():
    return get_rs("A2")


@pytest.fixture
def b2():
    return get_rs("B2")


@pytest.fixture
def g2():
    return get_rs("G2")


IRREDUCIBLE_UP_TO_RANK_4 = [
    ("A1", 1), ("A2", 2), ("B2", 2), ("C2", 2), ("G2", 2),
    ("A3", 3), ("B3", 3), ("C3", 3),
    ("A4", 4), ("B4", 4), ("C4", 4), ("D4", 4), ("F4", 4),
]


IRREDUCIBLE_UP_TO_RANK_8 = (
    [f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(2, 9)] + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)

PRODUCTS = [
    "A1xA1", "A1xA2", "G2xB3", "B2xG2", "A1xE7", "C3xD4", "F4xA2xA1xA1",
    "A2xA2xA2xA1", "G2xG2xG2xA1xA1",
]


def specs_up_to_rank(bound):
    """Every product of irreducible types with total rank <= bound."""
    out = []
    for k in range(1, bound + 1):
        for combo in itertools.combinations_with_replacement(
                IRREDUCIBLE_UP_TO_RANK_4, k):
            if sum(n for _, n in combo) <= bound:
                out.append("x".join(name for name, _ in combo))
    return out
