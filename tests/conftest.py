import os
from pathlib import Path

import numpy as np
import pytest

from sklab.theta import CurveModulus

OMEGA = 0.2 + 1.3j
SRC = Path(__file__).resolve().parents[1] / "src"

_acceptance_lines = []


def record_acceptance(line: str) -> None:
    _acceptance_lines.append(line)


def pytest_terminal_summary(terminalreporter):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def modulus():
    return CurveModulus(OMEGA)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture()
def src_env():
    """Environment for a child interpreter that imports sklab from src/."""
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)
