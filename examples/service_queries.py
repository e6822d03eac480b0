"""Route-query service quickstart: every query type over the wire.

Starts ``python -m repro serve`` as a subprocess (storm on, so tables
are being repaired while we query), connects with the blocking client,
exercises each op — ping, info, dlid, path, flows, load, top-loads,
telemetry, a telemetry subscription — and shuts the server down
cleanly.  This doubles as the CI smoke script for the service.

Run from the repo root::

    PYTHONPATH=src python examples/service_queries.py
"""

from __future__ import annotations

import subprocess
import sys

from repro.service import ServiceClient

PORT = 38917  # fixed so the subprocess and client agree


def main() -> int:
    server = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "4",
            "2",
            "--port",
            str(PORT),
            "--telemetry-interval",
            "0.2",
            "--pace",
            "0.01",
        ],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        banner = server.stdout.readline().strip()
        print(f"server: {banner}")
        assert banner.endswith(f":{PORT}"), banner

        with ServiceClient("127.0.0.1", PORT) as c:
            print(f"ping      -> generation {c.ping()['generation']}")

            info = c.info()
            print(
                f"info      -> FT({info['m']},{info['n']}) "
                f"[{info['scheme']}], {info['num_nodes']} nodes, "
                f"{info['num_lids']} LIDs"
            )

            resp = c.dlid(0, 5)
            print(
                f"dlid      -> node 0 reaches node 5 via DLID "
                f"{resp['dlid']} (generation {resp['generation']})"
            )

            path = c.path(0, 5)
            print(
                f"path      -> {' -> '.join(path['switches'])} "
                f"(ports {path['ports']})"
            )

            flows = c.flows("0", 0, 0)
            print(
                f"flows     -> {flows['count']} flow classes cross "
                f"SW<0, 0> port 0"
            )

            load = c.load("0", 0, 0)
            print(f"load      -> SW<0, 0> port 0 carries {load['load']}")

            top = c.top_loads(3)
            hottest = top["top"][0]
            print(
                f"top-loads -> hottest channel {hottest['switch']} "
                f"port {hottest['port']} at {hottest['load']}"
            )

            frame = c.telemetry()
            print(
                f"telemetry -> generation "
                f"{frame['snapshots']['generation']}, "
                f"{frame['snapshots']['publishes']} snapshots published, "
                f"{frame['repairs']['reroutes']} reroutes"
            )

        # Telemetry subscription on a dedicated connection.
        with ServiceClient("127.0.0.1", PORT) as sub:
            sub.subscribe()
            for i, frame in enumerate(sub.frames(3)):
                print(
                    f"frame {i}   -> generation "
                    f"{frame['snapshots']['generation']}, snapshot age "
                    f"{frame['snapshots']['snapshot_age_s']}s"
                )

        with ServiceClient("127.0.0.1", PORT) as c:
            c.shutdown()
        code = server.wait(timeout=30)
        print(f"server exited cleanly with code {code}")
        return code
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
        server.stdout.close()


if __name__ == "__main__":
    sys.exit(main())
