"""A worker asked to stop (SIGTERM) quiesces and exits on its own, promptly,
while a client still holds a connection to it — the SIGKILL fallback in
:meth:`WorkerProcess.terminate` must never be what ends it."""

import time

import pytest

from repro.cluster.worker import WorkerProcess
from repro.net.remote import RemoteTriggerManClient

pytestmark = pytest.mark.slow


@pytest.mark.parametrize("persistent", [False, True])
def test_sigterm_exits_in_under_a_second(tmp_path, persistent):
    worker = WorkerProcess(
        0, data_dir=str(tmp_path) if persistent else None
    ).spawn()
    client = RemoteTriggerManClient(*worker.address)
    try:
        client.command(
            "define data source ticks as stream (symbol varchar(8), price float)"
        )
        start = time.monotonic()
        worker.process.terminate()
        returncode = worker.process.wait(timeout=10)
        elapsed = time.monotonic() - start
    finally:
        client.close()
        worker.kill()
    assert returncode == 0  # exited by itself, not by SIGKILL (-9)
    assert elapsed < 1.0, f"worker took {elapsed:.2f}s to exit after SIGTERM"
