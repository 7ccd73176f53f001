"""The DSE sweep as a compile-server client: ``explore`` on a
``RemoteExecutor`` must return exactly the points the local executor
path computes."""

import asyncio
import threading

from repro.eval.dse import explore
from repro.isaxes import ALL_ISAXES
from repro.server import CompileServer, CompileServerApp, RemoteExecutor


def test_explore_via_server_matches_local_sweep():
    loop = asyncio.new_event_loop()
    started = threading.Event()
    holder = {}

    def serve():
        asyncio.set_event_loop(loop)

        async def boot():
            core = CompileServer(workers=2, backend="thread")
            app = CompileServerApp(core)     # default runner allow-list
            host, port = await app.start("127.0.0.1", 0)
            holder["app"] = app
            holder["url"] = f"http://{host}:{port}"
            started.set()

        loop.run_until_complete(boot())
        loop.run_forever()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    assert started.wait(10), "server thread never came up"
    try:
        kwargs = dict(cycle_scales=(1.0, 2.0), initiation_intervals=(1, 2))
        remote = RemoteExecutor(holder["url"], priority="interactive")
        via_server = explore(ALL_ISAXES["dotprod"], core="VexRiscv",
                             executor=remote, **kwargs)
        local = explore(ALL_ISAXES["dotprod"], core="VexRiscv", **kwargs)
        assert via_server == local
        assert len(via_server) == 4          # 2 cycle scales x 2 IIs
    finally:
        asyncio.run_coroutine_threadsafe(
            holder["app"].close(drain=False), loop).result(10)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10)
        assert not thread.is_alive()
        loop.close()
