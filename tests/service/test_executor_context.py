"""An in-process job runs on a worker thread but sees the caller's
context variables, as code called inline would (tracers keep their span
parents this way)."""

from repro.service import BatchExecutor, TaskSpec
from tests.service import runners


def test_in_process_jobs_see_the_callers_context():
    token = runners.CALLER.set("outer")
    try:
        (outcome,) = BatchExecutor(workers=1).run_specs(
            [TaskSpec(runner="tests.service.runners:caller", payload={})])
    finally:
        runners.CALLER.reset(token)
    assert outcome.ok
    assert outcome.result == {"caller": "outer"}
