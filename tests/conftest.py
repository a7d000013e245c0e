"""Shared pytest plumbing: collect acceptance-criterion report lines and
print them as an uncaptured terminal section at the end of the run, and
count the union geometries, the solves, the block gathers and the square
roots the distance layer makes."""
import numpy as np
import pytest

import magmetric.distance

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def sq_calls(monkeypatch):
    """The row count of each union squared-distance matrix built, in call order."""
    calls = []
    real = magmetric.distance._sq_distances

    def counting(coords):
        calls.append(len(coords))
        return real(coords)

    monkeypatch.setattr(magmetric.distance, "_sq_distances", counting)
    return calls


@pytest.fixture
def solves(monkeypatch):
    """The size of each similarity matrix the distance layer solves, in call order."""
    sizes = []
    real = magmetric.distance._solve_ones

    def counting(zeta):
        sizes.append(zeta.shape[0])
        return real(zeta)

    monkeypatch.setattr(magmetric.distance, "_solve_ones", counting)
    return sizes


@pytest.fixture
def blocks(monkeypatch):
    """(matrix, rows, cols) of each block the distance layer gathers, in call order."""
    calls = []
    real = magmetric.distance._block

    def counting(a, rows, cols):
        calls.append((a, rows, cols))
        return real(a, rows, cols)

    monkeypatch.setattr(magmetric.distance, "_block", counting)
    return calls


@pytest.fixture
def roots(monkeypatch):
    """The shape of each array the distance layer takes np.sqrt of, in call order."""
    shapes = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def sqrt(x, *args, **kwargs):
            shapes.append(np.shape(x))
            return np.sqrt(x, *args, **kwargs)

    monkeypatch.setattr(magmetric.distance, "np", CountingNumpy())
    return shapes
