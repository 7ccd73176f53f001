"""Module-level task runners for executor tests (must be importable by
worker processes, hence not defined inside test functions)."""

import contextvars
import os
import pathlib
import time

#: Set by a test around an executor call; read back by ``caller``.
CALLER = contextvars.ContextVar("caller", default=None)


def echo(payload: dict) -> dict:
    return {"echo": payload["value"]}


def sleepy(payload: dict) -> dict:
    time.sleep(payload["seconds"])
    return {"slept": payload["seconds"]}


def boom(payload: dict) -> dict:
    raise RuntimeError(payload.get("message", "boom"))


def caller(payload: dict) -> dict:
    return {"caller": CALLER.get()}


def die(payload: dict) -> dict:
    """Kill the process running the job, as a crashed worker would."""
    os._exit(1)


def flaky(payload: dict) -> dict:
    """Fails until the attempt counter file reaches ``fail_times``.

    The counter lives on disk so the behavior is shared between the parent
    process and pool workers.
    """
    counter = pathlib.Path(payload["counter_path"])
    seen = int(counter.read_text()) if counter.exists() else 0
    counter.write_text(str(seen + 1))
    if seen < payload["fail_times"]:
        raise RuntimeError(f"transient failure #{seen + 1}")
    return {"succeeded_on_attempt": seen + 1}
