"""Remote shard cluster: socket workers vs process pipes.

Not a paper figure — this repo's cluster-tier bench (PR 9).  The remote
mode promotes the process-worker pipe protocol to a length-prefixed,
CRC-framed socket protocol (``repro/service/remote.py``) so shard pools
can leave the router's process tree; the price is pickling into a real
socket instead of a pipe.  One cell quantifies that price:

* ``cluster``  — marginal per-tuple scored ingestion through two
  socket workers (each its own OS process, loopback TCP) vs the same
  stream through two supervised pipe workers on the same box.  The
  protocols carry identical payloads, so the ratio isolates the socket
  framing; it must stay within ``SOCKET_MULTIPLE`` (the PR-9
  acceptance bound), and the measured stream must stay
  property-identical between the modes.

Run with ``pytest benchmarks/bench_cluster.py -s``; results land in
``BENCH_PR9.json`` (uploaded as a CI artifact).  ``REPRO_BENCH_SCALE``
enlarges the workloads.
"""

import gc
import os
import time
from contextlib import contextmanager

from repro.datasets.synthetic import synthetic_rows, synthetic_schema
from repro.api import EngineSpec, ShardingSpec, open_engine
from repro.service.remote import run_worker

from _results import update_results

N, D, M = 1200, 4, 4
CHUNK = 150
CHUNKS = 4

#: Remote socket ingestion may cost at most this multiple of the
#: process-pipe mode on the same box (the PR-9 acceptance criterion).
#: Both modes pickle the same chunk payloads and pipeline identically;
#: the delta is frame headers + CRC + loopback TCP, measured ~1.0-1.1x.
SOCKET_MULTIPLE = 1.3


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@contextmanager
def socket_workers(count):
    """``count`` socket shard-workers, one OS process each (the real
    deployment shape — loopback TCP, separate GILs)."""
    import multiprocessing as mp

    method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
    ctx = mp.get_context(method)
    processes, addresses = [], []
    try:
        for _ in range(count):
            ready = ctx.Queue()
            process = ctx.Process(
                target=run_worker,
                args=("127.0.0.1", 0, ready, False),
                daemon=True,
            )
            process.start()
            addresses.append(f"127.0.0.1:{ready.get(timeout=30)}")
            processes.append(process)
        yield addresses
    finally:
        for process in processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=5)


def reportable_keys(lists):
    return [
        [(f.constraint.values, f.subspace, f.prominence) for f in facts]
        for facts in lists
    ]


def test_remote_marginal_within_process_budget(bench_scale):
    """Socket-worker ingestion ≤ 1.3× pipe-worker ingestion, same output."""
    n = int(N * bench_scale)
    schema = synthetic_schema(D, M)
    rows = synthetic_rows(
        n + CHUNK * CHUNKS, D, M, distribution="anticorrelated"
    )
    warm, tail = rows[:n], rows[n:]
    chunks = [tail[i * CHUNK : (i + 1) * CHUNK] for i in range(CHUNKS)]

    def measure():
        with socket_workers(2) as addresses:
            remote = open_engine(EngineSpec(
                schema, "svec", sharding=ShardingSpec(
                    2, "remote", chunk_size=CHUNK,
                    remote={"0": addresses[:1], "1": addresses[1:]},
                ),
            ))
            process = open_engine(EngineSpec(
                schema, "svec",
                sharding=ShardingSpec(2, "process", chunk_size=CHUNK),
            ))
            try:
                remote.facts_for_many(warm)
                process.facts_for_many(warm)
                remote_times, process_times = [], []
                mismatches = 0
                gc_was_enabled = gc.isenabled()
                gc.disable()
                try:
                    for chunk in chunks:
                        start = time.perf_counter()
                        expected = process.observe_many(chunk)
                        process_times.append(time.perf_counter() - start)
                        start = time.perf_counter()
                        got = remote.observe_many(chunk)
                        remote_times.append(time.perf_counter() - start)
                        if reportable_keys(got) != reportable_keys(expected):
                            mismatches += 1
                finally:
                    if gc_was_enabled:
                        gc.enable()
                counters_equal = (
                    remote.counters.snapshot() == process.counters.snapshot()
                )
                clean = (
                    remote.fault_counters()["replica_failovers"] == 0
                    and not remote.degraded
                )
            finally:
                remote.close()
                process.close()
        return {
            "process_s": min(process_times) / CHUNK,
            "remote_s": min(remote_times) / CHUNK,
            "mismatches": mismatches,
            "counters_equal": counters_equal,
            "clean": clean,
        }

    cell = measure()
    ratio = cell["remote_s"] / cell["process_s"]
    if ratio > SOCKET_MULTIPLE:  # one retry: scheduler bursts happen
        retry = measure()
        if retry["remote_s"] / retry["process_s"] < ratio:
            retry["mismatches"] += cell["mismatches"]
            retry["counters_equal"] &= cell["counters_equal"]
            retry["clean"] &= cell["clean"]
            cell = retry
            ratio = cell["remote_s"] / cell["process_s"]
    process_ms = 1e3 * cell["process_s"]
    remote_ms = 1e3 * cell["remote_s"]
    cpus = usable_cpus()
    print()
    print(
        f"scored observe_many marginal per-tuple latency @ n={n} d={D} "
        f"m={M} (anticorrelated), {cpus} usable CPUs"
    )
    print(f"  process (2 pipe workers)    {process_ms:>9.3f} ms")
    print(f"  remote  (2 socket workers)  {remote_ms:>9.3f} ms")
    print(f"  remote/process {ratio:.2f}x (ceiling {SOCKET_MULTIPLE}x)")
    update_results(
        "cluster",
        {
            "process_ms": round(process_ms, 4),
            "remote_ms": round(remote_ms, 4),
            "remote_over_process": round(ratio, 3),
            "ceiling": SOCKET_MULTIPLE,
            "workers": 2,
            "cpus": cpus,
        },
        filename="BENCH_PR9.json",
    )
    update_results(
        "meta",
        {"n": n, "d": D, "m": M, "distribution": "anticorrelated"},
        filename="BENCH_PR9.json",
    )
    assert cell["mismatches"] == 0, (
        "remote output diverged from the process-mode engine on "
        f"{cell['mismatches']} measured chunk(s)"
    )
    assert cell["counters_equal"], (
        "remote op-counter totals diverged from the process-mode engine"
    )
    assert cell["clean"], (
        "the remote pool failed over or degraded during the measurement "
        "— the numbers would mix recovery cost into protocol overhead"
    )
    assert ratio <= SOCKET_MULTIPLE, (
        f"socket-worker ingestion costs {ratio:.2f}x the pipe workers "
        f"(ceiling {SOCKET_MULTIPLE}x) — something expensive has crept "
        f"into the frame path (repro/service/remote.py); see "
        f"bench_guard.py::test_socket_frame_overhead_stays_marginal for "
        f"the protocol-only isolation"
    )
