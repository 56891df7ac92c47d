import os

import pytest

from collreg import integrators


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process behind, running or unreaped.

    The trajectory writer forks its helper with os.fork, which neither
    ResourceWarning nor multiprocessing.active_children() sees; a process left
    running is a failed benchmark run.
    """
    yield
    if not hasattr(os, "WNOHANG"):
        return
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    if pid:
        pytest.fail(f"the test left child process {pid} unreaped (status {status})")
    pytest.fail("the test left a child process running")


@pytest.fixture
def forks(monkeypatch) -> list:
    """The CSV writers that fork a helper, in the order they are opened."""
    forked = []
    fork = integrators._CsvWriter._fork
    monkeypatch.setattr(integrators._CsvWriter, "_fork",
                        lambda self: forked.append(self) or fork(self))
    return forked
