import os

import pytest

from collreg import integrators


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process behind, running or unreaped.

    The trajectory writer and `collreg verify` fork their helpers
    (integrators._Helper) with os.fork, which neither ResourceWarning nor
    multiprocessing.active_children() sees; a process left running is a
    failed benchmark run.
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

    def fork_and_count(self):
        fork(self)
        if self._helper is not None:  # _can_fork() allowed it
            forked.append(self)

    monkeypatch.setattr(integrators._CsvWriter, "_fork", fork_and_count)
    return forked
