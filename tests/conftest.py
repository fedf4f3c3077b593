import os

import pytest


@pytest.fixture
def fork_sets(monkeypatch):
    """The children forked by each montecarlo._fork_map call, one list of pids per call.

    Each child is reaped before its call returns, so at teardown no child of
    this process may be left, running or unreaped.
    """
    from zebraperc import montecarlo

    sets, fork, fork_map = [], os.fork, montecarlo._fork_map

    def counting_fork():
        pid = fork()
        if pid:
            sets[-1].append(pid)
        return pid

    def recording_map(fn, jobs, workers):
        sets.append([])
        return fork_map(fn, jobs, workers)

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(montecarlo, "_fork_map", recording_map)
    yield sets
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
