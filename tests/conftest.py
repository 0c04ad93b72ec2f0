import pytest

from durakit import parallel


class RecordedPools:
    """The thread pools ``durakit.parallel`` starts during one test, in order;
    each has its ``size`` and the argument tuples of the ``jobs`` submitted."""

    def __init__(self, monkeypatch):
        self.started = []
        self.machine = parallel._CPUS
        self._monkeypatch = monkeypatch
        started = self.started

        class RecordingPool(parallel.ThreadPoolExecutor):
            def __init__(self, max_workers):
                super().__init__(max_workers=max_workers)
                self.size, self.jobs = max_workers, []
                started.append(self)

            def submit(self, fn, *args):
                self.jobs.append(args)
                return super().submit(fn, *args)

        monkeypatch.setattr(parallel, "ThreadPoolExecutor", RecordingPool)

    def reset(self, cpus=None):
        """Forget the process's pool, as if nothing had used it yet, and count
        ``cpus`` CPUs from now on (None: the machine's own count)."""
        self._monkeypatch.setattr(parallel, "_CPUS", self.machine if cpus is None else cpus)
        self._monkeypatch.setattr(parallel, "_pool", None)

    @property
    def sizes(self) -> list[int]:
        return [pool.size for pool in self.started]


@pytest.fixture
def pools(monkeypatch):
    """A fresh process pool for this test, recorded; every pool it starts is
    shut down afterwards, and the process's own pool is put back."""
    recorded = RecordedPools(monkeypatch)
    recorded.reset()
    yield recorded
    for pool in recorded.started:
        pool.shutdown()
