"""Process-backend crash policy: a dead worker or a timed-out job
replaces the pool, so later jobs still run."""

import asyncio

from repro.server.core import CompileServer
from repro.service.executor import TaskSpec

ECHO = TaskSpec(runner="tests.service.runners:echo", payload={"value": 3})
DIE = TaskSpec(runner="tests.service.runners:die", payload={})
SLEEPY = TaskSpec(runner="tests.service.runners:sleepy",
                  payload={"seconds": 3.0})


def _run_in_order(specs, **server_kwargs):
    """Submit each spec after the previous one finished."""
    async def _body():
        server = CompileServer(backend="process", **server_kwargs)
        await server.start()
        try:
            records = []
            for spec in specs:
                records.append(await (await server.submit(spec)).wait())
            return records
        finally:
            await server.close(drain=False)

    return asyncio.run(_body())


def test_job_after_a_dead_worker_succeeds():
    died, echoed = _run_in_order([DIE, ECHO], workers=2)
    assert died.state == "failed" and died.attempts == 2
    assert "BrokenProcessPool" in died.error
    assert echoed.state == "ok"
    assert echoed.result == {"echo": 3}


def test_job_after_a_timeout_gets_a_free_worker():
    """One worker, stuck on the timed-out job: without a new pool the
    next job would queue behind it and time out too."""
    slept, echoed = _run_in_order([SLEEPY, ECHO], workers=1,
                                  timeout_s=1.0, retries=0)
    assert slept.state == "failed" and "timed out" in slept.error
    assert echoed.state == "ok"
