"""Closed-loop load generator for the route-query workloads.

Runs as one child process of the workload, on the one CPU ``--cpu``:
:data:`THREADS` threads, one blocking
:class:`~repro.service.ServiceClient` connection each, every caller
waiting for its answer before sending the next request (the way the
shipped client is used).  The request mix is 3:1 dlid:path over
(src, dst) pairs drawn from ``--seed``.

With ``--echo-port`` every thread also holds an :class:`EchoClient`
connection to the workload's echo reference, and all threads switch
between the service and the echo together, every :data:`PHASE_S`: each
service phase has an echo phase of the same requests right after it,
on a host in the same state.

Protocol on stdin/stdout, one line each:
  generator -> ``ready``   (connected and warmed up)
  workload  -> ``go``      (start the measured window)
  workload  -> ``stop``    (end it)
  generator -> one JSON object with counts, latency percentiles per
               window (a service phase and its echo phase), the
               generations check and the sampled answers to verify.
"""

from __future__ import annotations

import argparse
import json
import os
import socket
import sys
import threading
import time

import numpy as np

from repro.service.client import ServiceClient, ServiceError

#: Callers (threads and connections): the 2 cores of the box the
#: baseline was taken on.
THREADS = 2
#: Answers kept per connection for the bit-identity check.
SAMPLES_PER_CONNECTION = 32
#: Keep every ``SAMPLE_STRIDE``-th answer, then thin to the quota.
SAMPLE_STRIDE = 97
#: Pre-drawn requests per connection (cycled when exhausted).
SCRIPT_LEN = 1 << 16
WARMUP_REQUESTS = 50
#: Length of a phase: short next to the host's slow spells, long
#: enough that a phase's p99 has ~10 queries beyond it.
PHASE_S = 0.1


class EchoClient:
    """:class:`~repro.service.ServiceClient`'s round trip without ``repro``
    code, for the echo reference: one JSON line out, one back."""

    def __init__(self, host: str, port: int):
        self._sock = socket.create_connection((host, port), timeout=10.0)
        self._file = self._sock.makefile("rwb")

    def request(self, op: str, **fields) -> dict:
        fields["op"] = op
        self._file.write((json.dumps(fields) + "\n").encode())
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ConnectionError("echo server closed the connection")
        return json.loads(line)

    def dlid(self, src: int, dst: int) -> dict:
        return self.request("dlid", src=src, dst=dst)

    def path(self, src: int, dst: int) -> dict:
        return self.request("path", src=src, dst=dst)

    def close(self) -> None:
        self._file.close()
        self._sock.close()


def request_script(seed: int, conn: int, num_nodes: int, length: int = SCRIPT_LEN):
    """(op_is_path, src, dst) arrays for one connection, from ``seed``."""
    rng = np.random.default_rng([seed, conn])
    src = rng.integers(0, num_nodes, size=length)
    dst = rng.integers(0, num_nodes - 1, size=length)
    dst += dst >= src
    is_path = rng.integers(0, 4, size=length) == 3
    return is_path.tolist(), src.tolist(), dst.tolist()


class Connection(threading.Thread):
    """One closed-loop caller (of the service, and of the echo if given)."""

    def __init__(self, clients: list, script, go: threading.Event, stop: threading.Event):
        super().__init__(daemon=True)
        self.clients = clients
        self.script = script
        self.go = go
        self.stop_flag = stop
        #: Set before ``go``: the clock phases count from.
        self.start_ns = 0
        self.sent_ns: list = []
        self.latency_ns: list = []
        self.failures: list = []
        self.generation_regressions = 0
        self.samples: list = []
        self.error = None

    def warm_up(self) -> None:
        is_path, src, dst = self.script
        for client in self.clients:
            for i in range(WARMUP_REQUESTS):
                client.dlid(src[i], dst[i])

    def run(self) -> None:
        try:
            self._loop()
        except (OSError, ValueError) as exc:
            self.error = repr(exc)
        finally:
            for client in self.clients:
                client.close()

    def _loop(self) -> None:
        is_path, src, dst = self.script
        n = len(src)
        perf_ns = time.perf_counter_ns
        sent, lat = self.sent_ns, self.latency_ns
        clients = self.clients
        phases = len(clients)
        phase_ns = int(PHASE_S * 1e9)
        last_gen = -1
        self.go.wait()
        start = self.start_ns
        i = 0
        while not self.stop_flag.is_set():
            k = i % n
            s, d = src[k], dst[k]
            t0 = perf_ns()
            client = clients[(t0 - start) // phase_ns % phases]
            try:
                resp = client.path(s, d) if is_path[k] else client.dlid(s, d)
            except ServiceError as exc:
                lat.append(perf_ns() - t0)
                sent.append(t0)
                self.failures.append(f"{'path' if is_path[k] else 'dlid'} {s}->{d}: {exc}")
                i += 1
                continue
            lat.append(perf_ns() - t0)
            sent.append(t0)
            i += 1
            if client is not clients[0]:
                continue
            gen = resp["generation"]
            if gen < last_gen:
                self.generation_regressions += 1
            last_gen = gen
            if i % SAMPLE_STRIDE == 0:
                self.samples.append({"src": s, "dst": d, "response": resp})


def _thin(samples: list, quota: int) -> list:
    if len(samples) <= quota:
        return samples
    step = len(samples) / quota
    return [samples[int(j * step)] for j in range(quota)]


def _percentiles(lat_us: np.ndarray) -> dict:
    return {f"p{q}": float(np.percentile(lat_us, q)) for q in (50, 90, 99)}


def summarize(conns, start_ns: int, wall_s: float, cpu_s: float) -> dict:
    """The result line.  Only service queries count as queries; echo
    round trips appear only as the ``echo_*`` fields of the windows."""
    phases = len(conns[0].clients)
    lat = np.concatenate([np.asarray(c.latency_ns, dtype=np.float64) for c in conns]) / 1e3
    sent = np.concatenate([np.asarray(c.sent_ns, dtype=np.int64) for c in conns])
    phase = (sent - start_ns) // int(PHASE_S * 1e9)
    window, is_echo = phase // phases, phase % phases == 1
    windows = []
    for w in range(int(wall_s / (PHASE_S * phases))):
        served, echoed = (window == w) & ~is_echo, (window == w) & is_echo
        if not served.any() or (phases > 1 and not echoed.any()):
            continue
        row = {"queries": int(served.sum()), **_percentiles(lat[served])}
        if phases > 1:
            row.update(echo_queries=int(echoed.sum()),
                       **{f"echo_{k}": v for k, v in _percentiles(lat[echoed]).items()})
        windows.append(row)
    served = lat[~is_echo]
    return {
        "queries": int(served.size),
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "phase_s": PHASE_S,
        "windows": windows,
        "latency_us": _percentiles(served) if served.size else {},
        "failures": [f for c in conns for f in c.failures][:20],
        "failed": sum(len(c.failures) for c in conns),
        "generation_regressions": sum(c.generation_regressions for c in conns),
        "errors": [c.error for c in conns if c.error],
        "samples": [
            s for c in conns for s in _thin(c.samples, SAMPLES_PER_CONNECTION)
        ],
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--port", type=int, required=True)
    p.add_argument("--echo-port", type=int, help="the workload's echo reference")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--cpu", type=int, required=True, help="run every thread on this CPU")
    args = p.parse_args(argv)
    os.sched_setaffinity(0, {args.cpu})  # before any thread starts

    go, stop = threading.Event(), threading.Event()
    conns = []
    for i in range(THREADS):
        clients = [ServiceClient("127.0.0.1", args.port)]
        if args.echo_port is not None:
            clients.append(EchoClient("127.0.0.1", args.echo_port))
        conns.append(Connection(clients, request_script(args.seed, i, args.nodes), go, stop))
    for c in conns:
        c.warm_up()
        c.start()
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        stop.set()
        go.set()
        return 2
    cpu0 = time.process_time()
    t0 = time.perf_counter_ns()
    for c in conns:
        c.start_ns = t0
    go.set()
    sys.stdin.readline()  # "stop" (or EOF: the workload went away)
    stop.set()
    for c in conns:
        c.join()
    wall = (time.perf_counter_ns() - t0) / 1e9
    cpu = time.process_time() - cpu0
    print(json.dumps(summarize(conns, t0, wall, cpu)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
