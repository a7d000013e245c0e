"""Shared pytest plumbing: collect acceptance-criterion report lines and
print them as an uncaptured terminal section at the end of the run, and
count the union geometries and the solves the distance layer makes."""
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
