"""Tests for the repro-facts command-line interface."""

import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
from contextlib import contextmanager

import pytest

from repro.cli import build_parser, main
from repro.datasets import nba_rows, nba_schema, save_rows
from repro.service.remote import SocketWorkerServer
from tests.strategies import SERVICE_SCHEMA, make_rows, open_router

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


#: A fresh interpreter's environment: ``src`` and the repo root importable.
CHILD_ENV = dict(
    os.environ, PYTHONPATH=os.pathsep.join([os.path.join(REPO, "src"), REPO])
)


def run_python(code, *args, timeout=60):
    """Run ``code`` in a fresh interpreter, so what it imports is not
    what this test process already loaded."""
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=REPO,
        env=CHILD_ENV,
    )


@contextmanager
def cli_process(err_path, *args, timeout=60):
    """Run ``python -m repro.cli *args`` with stderr going to
    ``err_path``.  Yields ``(proc, port)`` once its ``listening on
    host:port`` banner is out, or ``(proc, None)`` if it exits first;
    kills and reaps it on exit."""
    with open(err_path, "w") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *args],
            stdout=subprocess.DEVNULL,
            stderr=err,
            cwd=REPO,
            env=CHILD_ENV,
        )
    try:
        deadline = time.monotonic() + timeout
        while True:
            exited = proc.poll() is not None
            with open(err_path) as fh:
                banner = re.search(r"^listening on .*:(\d+)$", fh.read(), re.M)
            if banner or exited:
                break
            assert time.monotonic() < deadline, f"no banner from {args}"
            time.sleep(0.02)
        yield proc, int(banner.group(1)) if banner else None
    finally:
        proc.kill()
        proc.wait()


def stats_line(stderr):
    """The ``# service stats:`` dict ``serve`` prints at exit."""
    (line,) = [
        line for line in stderr.splitlines()
        if line.startswith("# service stats: ")
    ]
    return json.loads(line[len("# service stats: "):])


@pytest.fixture
def nba_csv(tmp_path):
    schema = nba_schema(4, 4)
    path = str(tmp_path / "nba.csv")
    save_rows(path, schema, nba_rows(40, d=4, m=4))
    return path


DIMS = "player,season,team,opp_team"
MEAS = "points,rebounds,assists,blocks"


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_discover_args(self):
        args = build_parser().parse_args(
            ["discover", "x.csv", "-d", DIMS, "-m", MEAS, "--tau", "5"]
        )
        assert args.csv == "x.csv"
        assert args.tau == 5.0


class TestDiscover:
    def test_discover_prints_facts(self, nba_csv, capsys):
        rc = main(
            ["discover", nba_csv, "-d", DIMS, "-m", MEAS,
             "--dhat", "2", "--mhat", "2", "--tau", "3"]
        )
        assert rc == 0
        err = capsys.readouterr().err
        assert "facts from 40 tuples" in err

    def test_discover_batched_matches_row_at_a_time(self, nba_csv, capsys):
        rc = main(
            ["discover", nba_csv, "-d", DIMS, "-m", MEAS,
             "--dhat", "2", "--mhat", "2", "--tau", "3",
             "--algorithm", "svec"]
        )
        assert rc == 0
        unbatched = capsys.readouterr()
        rc = main(
            ["discover", nba_csv, "-d", DIMS, "-m", MEAS,
             "--dhat", "2", "--mhat", "2", "--tau", "3",
             "--algorithm", "svec", "--batch", "16"]
        )
        assert rc == 0
        batched = capsys.readouterr()
        assert batched.out == unbatched.out
        assert "facts from 40 tuples" in batched.err

    def test_discover_no_score_streams_unscored_facts(self, nba_csv, capsys):
        rc = main(
            ["discover", nba_csv, "-d", DIMS, "-m", MEAS,
             "--dhat", "2", "--mhat", "2", "--no-score",
             "--algorithm", "svec", "--batch", "16"]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "facts from 40 tuples" in captured.err
        # Unscored facts carry no prominence annotation.
        assert "prominence=" not in captured.out

    def test_discover_no_score_rejects_tau_and_top_k(self, nba_csv, capsys):
        for extra in (["--tau", "3"], ["--top-k", "2"]):
            rc = main(
                ["discover", nba_csv, "-d", DIMS, "-m", MEAS,
                 "--no-score", *extra]
            )
            assert rc == 2
            assert "prominence" in capsys.readouterr().err

    def test_discover_json(self, nba_csv, capsys):
        rc = main(
            ["discover", nba_csv, "-d", DIMS, "-m", MEAS,
             "--dhat", "1", "--mhat", "1", "--tau", "2", "--json"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        for line in out.strip().splitlines():
            doc = json.loads(line)
            assert {"tuple_id", "constraint", "measures", "prominence"} <= set(doc)

    def test_discover_narrated(self, nba_csv, capsys):
        rc = main(
            ["discover", nba_csv, "-d", DIMS, "-m", MEAS,
             "--dhat", "1", "--mhat", "1", "--tau", "2", "--narrate"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        # Narrations end with a period and mention records.
        if out:
            assert "unbeaten among" in out


class TestQuery:
    def test_query_outputs_skyline(self, nba_csv, capsys):
        rc = main(
            ["query", nba_csv, "-d", DIMS, "-m", MEAS,
             "-q", "* | points, rebounds"]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "skyline size" in captured.err
        assert "points" in captured.out

    def test_query_with_constraint(self, nba_csv, capsys):
        rc = main(
            ["query", nba_csv, "-d", DIMS, "-m", MEAS,
             "-q", "season=1991-92 | points"]
        )
        assert rc == 0


class TestDemo:
    def test_demo_runs(self, capsys):
        rc = main(["demo", "--tuples", "60", "--tau", "5"])
        assert rc == 0
        assert "prominent facts from 60 tuples" in capsys.readouterr().err


class TestServe:
    def test_spec_file_with_durability_flags_recovers_on_restart(
        self, tmp_path, capsys
    ):
        """``--checkpoint``/``--journal-dir`` beside a ``--spec`` file
        that has no checkpoint section: the flags fold into the spec, so
        the restart recovers from where the first run wrote (it used to
        start empty and overwrite the checkpoint with its own 5 rows)."""
        from repro.api import EngineSpec

        schema = nba_schema(4, 4)
        rows = nba_rows(35, d=4, m=4)
        spec_path = str(tmp_path / "spec.json")
        with open(spec_path, "w") as fh:
            json.dump(EngineSpec(schema, algorithm="svec").to_dict(), fh)
        first, second = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        save_rows(first, schema, rows[:30])
        save_rows(second, schema, rows[30:])
        checkpoint = str(tmp_path / "ck.json")

        def serve(csv):
            rc = main(
                ["serve", "--spec", spec_path, csv, "--checkpoint",
                 checkpoint, "--journal-dir", str(tmp_path / "wal")]
            )
            assert rc == 0
            with open(checkpoint) as fh:
                return capsys.readouterr().err, json.load(fh)

        err, doc = serve(first)
        assert "# recovered from" not in err
        assert len(doc["rows"]) == 30 and doc["journal_seq"] == 30
        err, doc = serve(second)
        assert "# recovered from checkpoint" in err
        assert "facts from 35 tuples" in err
        assert len(doc["rows"]) == 35 and doc["journal_seq"] == 35

    def test_stats_line_reports_replayed_ops_and_engine_tree(
        self, tmp_path, capsys
    ):
        """The ``# service stats:`` line printed after ``stop()`` holds
        the ops recovery replayed and the engine's stats tree."""
        from repro.service import JournalWriter

        wal = str(tmp_path / "wal")
        with JournalWriter(wal) as journal:
            for row in nba_rows(7, d=4, m=4):
                journal.append_ingest(row)
        rc = main(
            ["serve", "-d", DIMS, "-m", MEAS, "--algorithm", "svec",
             "--checkpoint", str(tmp_path / "ck.json"), "--journal-dir", wal]
        )
        assert rc == 0
        err = capsys.readouterr().err
        assert "# recovered from journal: 7 journal ops replayed" in err
        stats = stats_line(err)
        assert stats["ops_replayed"] == 7
        assert stats["engine"]["rows"] == 7
        assert stats["engine"]["counters"]["comparisons"] > 0

    def test_stats_line_reports_ops_that_failed_to_replay(
        self, tmp_path, capsys
    ):
        """A journaled op that fails to re-apply (a delete of a tid
        never ingested) is skipped at recovery and counted in the stats
        reply's ``replay_errors``, not only in the startup banner."""
        from repro.service import JournalWriter

        wal = str(tmp_path / "wal")
        with JournalWriter(wal) as journal:
            for row in nba_rows(3, d=4, m=4):
                journal.append_ingest(row)
            journal.append_delete(99)
        rc = main(
            ["serve", "-d", DIMS, "-m", MEAS, "--algorithm", "svec",
             "--checkpoint", str(tmp_path / "ck.json"), "--journal-dir", wal]
        )
        assert rc == 0
        err = capsys.readouterr().err
        assert "; 1 ops failed to re-apply" in err
        stats = stats_line(err)
        assert (stats["ops_replayed"], stats["replay_errors"]) == (3, 1)

    @pytest.mark.parametrize("render", [[], ["--json"]], ids=["text", "json"])
    def test_serve_csv_stdout_is_discovers_stdout(self, nba_csv, capsys, render):
        """The preload printer and ``discover`` write one block per
        event; both must stay byte-for-byte the per-fact lines (the
        e2e benchmark reads history facts off ``serve``'s stdout)."""
        flags = ["-d", DIMS, "-m", MEAS, "--dhat", "2", "--mhat", "2",
                 "--top-k", "3", "--algorithm", "svec", *render]
        assert main(["discover", nba_csv, *flags]) == 0
        discovered = capsys.readouterr()
        assert main(["serve", nba_csv, *flags]) == 0
        served = capsys.readouterr()
        assert served.out == discovered.out
        lines = served.out.splitlines()
        assert len(lines) >= 3 * 40 and all(lines)  # ≥ k facts per event
        if not render:
            assert lines[0].startswith("[0] ") and lines[-1].startswith("[39] ")
        assert "facts from 40 tuples" in served.err

    def test_sigkill_mid_stream_then_restart_equals_an_unfaulted_run(
        self, tmp_path, capsys
    ):
        """SIGKILL a real ``serve`` mid-stream, with one deletion before
        its last periodic checkpoint and one after it, restart it over
        the same checkpoint (feeds included, ``--feed-by d0``) and
        journal, and finish the stream: the recovered engine equals an unfaulted run
        of the same ops (live tids, rows, ``arrivals``, facts), and the
        restart counts no failure.  Then a torn checkpoint over the
        journal the graceful shutdown pruned is refused."""
        from repro.api import open_engine
        from repro.datasets.loader import load_rows
        from repro.datasets.synthetic import synthetic_rows, synthetic_schema
        from repro.extensions.snapshot import load_engine, read_snapshot
        from repro.metrics.service import FAILURE_CLASSES

        schema = synthetic_schema(3, 2)
        rows = synthetic_rows(240, 3, 2, distribution="anticorrelated")
        first, rest = str(tmp_path / "first.csv"), str(tmp_path / "rest.csv")
        save_rows(first, schema, rows[:120])
        save_rows(rest, schema, rows[120:])
        ckpt = str(tmp_path / "ckpt.snap")
        flags = ["-d", "d0,d1,d2", "-m", "m0,m1"]
        serve = [
            "serve", *flags, "--port", "0", "--checkpoint", ckpt,
            "--checkpoint-interval", "0.2", "--journal-dir",
            str(tmp_path / "wal"), "--feed-by", "d0", "--dead-letter",
            str(tmp_path / "dead.ndjson"),
        ]

        def ingest(csv, port, *extra):
            assert main(["ingest", csv, *flags, "--connect",
                         f"127.0.0.1:{port}", *extra]) == 0
            capsys.readouterr()

        def request(port, message):
            with socket.create_connection(("127.0.0.1", port), 30) as sock:
                stream = sock.makefile("rwb")
                stream.write(json.dumps(message).encode() + b"\n")
                stream.flush()
                return json.loads(stream.readline())

        err = tmp_path / "serve1.err"
        with cli_process(err, *serve) as (proc, port):
            assert port, err.read_text()
            ingest(first, port)
            assert request(port, {"op": "delete", "tid": 7}) == {"deleted": 7}
            seq = request(port, {"op": "stats"})["stats"]["journal_seq"]
            # The first checkpoint to cover the delete opens a 0.2 s
            # tick: delete tid 90 and kill well inside it.
            deadline = time.monotonic() + 30
            while not (
                os.path.exists(ckpt) and read_snapshot(ckpt)["journal_seq"] >= seq
            ):
                assert time.monotonic() < deadline, "no checkpoint covers tid 7"
                time.sleep(0.01)
            assert request(port, {"op": "delete", "tid": 90}) == {"deleted": 90}
            proc.send_signal(signal.SIGKILL)
            proc.wait()

        err = tmp_path / "serve2.err"
        with cli_process(err, *serve) as (proc, port):
            assert port, err.read_text()
            banner = err.read_text()
            assert "# recovered from checkpoint+journal" in banner
            assert "ops failed to re-apply" not in banner
            ingest(rest, port, "--shutdown")
            assert proc.wait(60) == 0, err.read_text()
        stats = stats_line(err.read_text())
        failed = {name: stats[name] for name in FAILURE_CLASSES if stats[name]}
        assert not failed, stats["failure_causes"]

        recovered = load_engine(ckpt)
        reference = open_engine(recovered.spec)
        rows = list(load_rows(first, schema)) + list(load_rows(rest, schema))
        reference.observe_many(rows[:120])
        reference.delete(7)
        reference.delete(90)
        reference.observe_many(rows[120:])

        def state(engine):
            table = [(r.tid, r.as_dict(engine.schema)) for r in engine.table]
            arrivals = engine.arrivals
            (facts,) = engine.facts_for_many([rows[0]])  # a probe arrival
            return table, arrivals, [
                (f.constraint.values, f.subspace, f.prominence) for f in facts
            ]

        with recovered, reference:
            assert state(recovered) == state(reference)

        with open(ckpt, "w") as fh:
            fh.write("{torn")
        err = tmp_path / "serve3.err"
        with cli_process(err, *serve) as (proc, port):
            assert port is None, "served over a torn checkpoint"
            assert proc.returncode == 2
        assert f"error: checkpoint '{ckpt}' is unreadable" in err.read_text()

    def test_durability_flags_need_a_checkpoint_path(self, capsys):
        rc = main(["serve", "-d", DIMS, "-m", MEAS, "--journal-dir", "wal"])
        assert rc == 2
        assert "need --checkpoint" in capsys.readouterr().err

    def test_quarantined_preload_row_does_not_hang(self, tmp_path):
        """A quarantined row publishes no event, so the preload printer
        must run until the subscription closes, not for one event per
        CSV row (it used to wait forever for the missing event)."""
        csv = str(tmp_path / "poison.csv")
        healthy = make_rows(2)
        poison = {"d0": "POISON", "d1": "b0", "m0": 3, "m1": 3}
        save_rows(csv, SERVICE_SCHEMA, [healthy[0], poison, healthy[1]])
        code = (
            "import sys\n"
            "import repro.cli as cli\n"
            "from tests.test_fault_tolerance import poison_engine\n"
            "cli.open_engine = poison_engine\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        try:
            proc = run_python(
                code, "serve", csv, "-d", "d0,d1", "-m", "m0,m1",
                "--algorithm", "svec", "--batch-max", "1", timeout=30,
            )
        except subprocess.TimeoutExpired:
            pytest.fail("serve hung on a quarantined preload row")
        assert proc.returncode == 0, proc.stderr
        labels = {line.split(" ", 1)[0] for line in proc.stdout.splitlines()}
        assert labels == {"[0]", "[1]"}
        assert "from 2 tuples" in proc.stderr
        assert stats_line(proc.stderr)["rows_quarantined"] == 1


#: What a serving process loads only to run the asyncio front-end.
ASYNCIO_TIER = ("asyncio", "ssl", "repro.service.server", "repro.service.gateway")


def on_glibc():
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


def loaded(proc, marker="LOADED "):
    """The module list a spy script printed after ``marker``."""
    assert proc.returncode == 0, proc.stderr
    (line,) = [
        line for line in proc.stdout.splitlines() if line.startswith(marker)
    ]
    return json.loads(line[len(marker):])


class TestLeanWorkers:
    """Each serving process imports only the layers it runs: the
    asyncio tier (≈ 3.8 MB of RSS with the server and gateway modules;
    8.5 MB while it still mapped OpenSSL) stays out of every process
    that never runs an event loop, and ``serve`` maps no OpenSSL.  Each
    check runs in a fresh interpreter."""

    def test_process_workers_fork_before_the_asyncio_tier(self, nba_csv):
        code = (
            "import json, sys\n"
            "from repro.cli import main\n"
            "from repro.service.sharding import ShardedDiscoverer\n"
            f"TIER = {ASYNCIO_TIER!r}\n"
            "spawn = ShardedDiscoverer._spawn_workers\n"
            "seen = []\n"
            "def spy(self):\n"
            "    seen.append(sorted(m for m in TIER if m in sys.modules))\n"
            "    return spawn(self)\n"
            "ShardedDiscoverer._spawn_workers = spy\n"
            "rc = main(sys.argv[1:])\n"
            "print('LOADED ' + json.dumps(seen))\n"
            "sys.exit(rc)\n"
        )
        proc = run_python(
            code, "serve", nba_csv, "-d", DIMS, "-m", MEAS,
            "--algorithm", "svec", "--workers", "2", "--mode", "process",
        )
        assert loaded(proc) == [[]]  # one fork point, nothing of the tier
        assert "facts from 40 tuples" in proc.stderr

    def test_bare_serve_loads_no_sharding_or_gateway_layer(self, nba_csv):
        code = (
            "import json, sys\n"
            "from repro.cli import main\n"
            "rc = main(sys.argv[1:])\n"
            "print('LOADED ' + json.dumps(sorted(\n"
            "    m for m in sys.modules if m.startswith('repro.service.'))))\n"
            "sys.exit(rc)\n"
        )
        proc = run_python(
            code, "serve", nba_csv, "-d", DIMS, "-m", MEAS,
            "--algorithm", "svec",
        )
        unused = {
            f"repro.service.{name}" for name in (
                "gateway", "cluster", "remote", "sharding", "supervisor",
                "worker",
            )
        }
        assert not unused & set(loaded(proc))

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/maps"), reason="needs /proc"
    )
    def test_serve_maps_no_openssl_and_loads_no_numpy_ma(
        self, nba_csv, tmp_path
    ):
        """A journaled ``serve`` whose feeds evict (``FeedStore._drop``
        runs) maps neither libssl nor libcrypto and never imports
        ``numpy.ma``; the gateway's handshake digest still gives RFC
        6455's sample value."""
        code = (
            "import json, sys\n"
            "from repro.cli import main\n"
            "from repro.service.feeds import FeedStore\n"
            "drop, drops = FeedStore._drop, []\n"
            "def spy(self, eids):\n"
            "    drops.append(len(eids))\n"
            "    return drop(self, eids)\n"
            "FeedStore._drop = spy\n"
            "rc = main(sys.argv[1:])\n"
            "from repro.service.gateway import ws_accept_key\n"
            "with open('/proc/self/maps') as fh:\n"
            "    maps = fh.read()\n"
            "print('LOADED ' + json.dumps({\n"
            "    'drops': len(drops),\n"
            "    'openssl': [lib for lib in ('libssl', 'libcrypto')\n"
            "                if lib in maps],\n"
            "    'numpy.ma': 'numpy.ma' in sys.modules,\n"
            "    'accept': ws_accept_key('dGhlIHNhbXBsZSBub25jZQ=='),\n"
            "}))\n"
            "sys.exit(rc)\n"
        )
        proc = run_python(
            code, "serve", nba_csv, "-d", DIMS, "-m", MEAS,
            "--algorithm", "svec", "--checkpoint", str(tmp_path / "ck.json"),
            "--journal-dir", str(tmp_path / "wal"), "--feed-by", "team",
            "--feed-cap", "4",
        )
        seen = loaded(proc)
        assert seen.pop("drops") > 0
        assert seen == {
            "openssl": [],
            "numpy.ma": False,
            "accept": "s3pPLMBiTxaQ9kYGzzhZRbK+xOo=",
        }

    def test_serve_keeps_an_ssl_module_already_loaded(self, nba_csv):
        code = (
            "import hashlib, json, ssl, sys\n"
            "from repro.cli import main\n"
            "rc = main(sys.argv[1:])\n"
            "print('LOADED ' + json.dumps([\n"
            "    sys.modules['ssl'] is ssl,\n"
            "    sys.modules['_hashlib'] is not None]))\n"
            "sys.exit(rc)\n"
        )
        proc = run_python(
            code, "serve", nba_csv, "-d", DIMS, "-m", MEAS,
            "--algorithm", "svec",
        )
        assert loaded(proc) == [True, True]

    @pytest.mark.skipif(not on_glibc(), reason="glibc malloc arenas")
    def test_serve_allocates_from_one_malloc_arena(self, nba_csv, tmp_path):
        """A journaled ``serve`` with feeds runs its engine thread on the
        main heap: glibc's ``malloc_stats()`` lists one arena, where the
        default gives the engine thread a second one."""
        code = (
            "import ctypes, sys\n"
            "from repro.cli import main\n"
            "rc = main(sys.argv[1:])\n"
            "ctypes.CDLL(None).malloc_stats()\n"
            "sys.exit(rc)\n"
        )
        proc = run_python(
            code, "serve", nba_csv, "-d", DIMS, "-m", MEAS,
            "--algorithm", "svec", "--checkpoint", str(tmp_path / "ck.json"),
            "--journal-dir", str(tmp_path / "wal"), "--feed-by", "team",
        )
        assert proc.returncode == 0, proc.stderr
        assert "facts from 40 tuples" in proc.stderr
        arenas = [
            line for line in proc.stderr.splitlines()
            if line.startswith("Arena ")
        ]
        assert arenas == ["Arena 0:"]

    @pytest.mark.parametrize(
        "argv, target",
        [
            (["shard-worker", "--port", "0"], "repro.service.remote.run_worker"),
            (["serve", "-d", DIMS, "-m", MEAS], "repro.cli.open_engine"),
        ],
        ids=["shard-worker", "serve"],
    )
    def test_entry_points_cap_arenas_before_they_start(
        self, monkeypatch, argv, target
    ):
        """Each serving entry point caps malloc arenas before it starts
        a thread (the pool member's per-connection threads, the server's
        engine thread) or opens its engine."""
        import repro.cli
        from repro import SchemaError

        calls = []

        def start(*args, **kwargs):
            calls.append("start")
            raise SchemaError("stop here")  # main() reports it: exit 2

        monkeypatch.setattr(
            repro.cli, "use_one_malloc_arena", lambda: calls.append("cap")
        )
        monkeypatch.setattr(target, start)
        assert main(argv) == 2
        assert calls == ["cap", "start"]

    def test_pool_member_entry_loads_no_asyncio(self):
        code = (
            "import json, sys\n"
            "import repro.service.remote\n"
            f"TIER = {ASYNCIO_TIER!r}\n"
            "print('LOADED ' + json.dumps(\n"
            "    sorted(m for m in TIER if m in sys.modules)))\n"
        )
        assert loaded(run_python(code)) == []


class TestLazyExports:
    """``repro.service`` resolves its exported names on first access."""

    def test_every_export_is_its_submodules_object(self):
        import repro.service as service

        for name in service.__all__:
            value = getattr(service, name)
            module = sys.modules[value.__module__]
            assert module.__name__.startswith("repro.service.")
            assert getattr(module, name) is value
        assert set(service.__all__) <= set(dir(service))

    def test_star_import_and_unknown_names(self):
        import repro.service as service

        namespace = {}
        exec("from repro.service import *", namespace)
        assert set(service.__all__) <= set(namespace)
        assert not hasattr(service, "nope")

    def test_serve_builds_the_stream_server_bound_at_call_time(
        self, nba_csv, monkeypatch, capsys
    ):
        """The e2e bench's traced round rebinds
        ``repro.service.StreamServer`` before calling ``main``."""
        import repro.service

        built = []

        class Recording(repro.service.StreamServer):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(repro.service, "StreamServer", Recording)
        assert main(["serve", nba_csv, "-d", DIMS, "-m", MEAS]) == 0
        assert len(built) == 1
        assert "facts from 40 tuples" in capsys.readouterr().err


class TestErrorHandling:
    def test_connect_port_out_of_range(self, nba_csv, capsys):
        rc = main(["ingest", nba_csv, "-d", DIMS, "-m", MEAS,
                   "--connect", "127.0.0.1:99999"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_query_string(self, nba_csv, capsys):
        rc = main(["query", nba_csv, "-d", DIMS, "-m", MEAS, "-q", "no pipe here"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_attribute_in_query(self, nba_csv, capsys):
        rc = main(["query", nba_csv, "-d", DIMS, "-m", MEAS, "-q", "coach=X | points"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_csv(self, capsys):
        rc = main(["discover", "/nonexistent.csv", "-d", DIMS, "-m", MEAS])
        assert rc == 2
        assert "cannot open" in capsys.readouterr().err


class TestMalformedCsv:
    """A malformed CSV cell ends a CSV command with ``error: <file>:
    <line>: <column>: …`` and exit 2, not a traceback."""

    @pytest.fixture
    def bad_csv(self, nba_csv):
        """``nba_csv`` with its 21st row's ``assists`` cell (file line
        22) replaced by a word."""
        with open(nba_csv) as fh:
            lines = fh.read().splitlines()
        header = lines[0].split(",")
        cells = lines[21].split(",")
        cells[header.index("assists")] = "notanumber"
        lines[21] = ",".join(cells)
        with open(nba_csv, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        return nba_csv

    def expected(self, path):
        return f"error: {path}:22: assists: not a number: 'notanumber'"

    @pytest.mark.parametrize("command", ["discover", "query"])
    def test_batch_commands(self, bad_csv, command, capsys):
        extra = ["-q", "* | points"] if command == "query" else []
        rc = main([command, bad_csv, "-d", DIMS, "-m", MEAS, *extra])
        assert rc == 2
        assert self.expected(bad_csv) in capsys.readouterr().err

    def test_journaled_serve_checkpoints_the_rows_before_it(
        self, bad_csv, tmp_path, capsys
    ):
        """``serve`` stops its server first: the 20 rows accepted before
        the bad one are discovered, printed, checkpointed and journaled,
        and a restart recovers them from the checkpoint."""
        checkpoint = str(tmp_path / "ck.json")
        durability = ["--checkpoint", checkpoint,
                      "--journal-dir", str(tmp_path / "wal")]
        rc = main(["serve", bad_csv, "-d", DIMS, "-m", MEAS,
                   "--algorithm", "svec", *durability])
        captured = capsys.readouterr()
        assert rc == 2
        assert self.expected(bad_csv) in captured.err
        assert captured.out.splitlines()[-1].startswith("[19] ")
        with open(checkpoint) as fh:
            doc = json.load(fh)
        assert len(doc["rows"]) == 20 and doc["journal_seq"] == 20
        rc = main(["serve", "-d", DIMS, "-m", MEAS, "--algorithm", "svec",
                   *durability])
        assert rc == 0
        err = capsys.readouterr().err
        assert "# recovered from checkpoint: 0 journal ops replayed" in err
        assert stats_line(err)["table_rows"] == 20

    def test_ingest(self, bad_csv, capsys):
        """The client stops at the bad row; the rows before it were
        acknowledged by the server."""
        from repro.core.config import DiscoveryConfig

        config = DiscoveryConfig(max_bound_dims=2, max_measure_dims=2, top_k=3)
        with serving(nba_schema(4, 4), config) as (engine, address):
            rc = main(["ingest", bad_csv, "-d", DIMS, "-m", MEAS,
                       "--connect", address])
            assert rc == 2
            assert self.expected(bad_csv) in capsys.readouterr().err
            assert len(engine) == 20


@contextmanager
def serving(schema, config=None):
    """A ``StreamServer`` over an ``svec`` engine, listening on an
    ephemeral loopback port on its own thread; yields ``(engine,
    "host:port")`` and shuts the server down on exit."""
    import asyncio
    import socket
    import threading

    from repro.api import EngineSpec, open_engine
    from repro.service import StreamServer

    engine = open_engine(EngineSpec(schema, "svec", config=config))
    ready, port = threading.Event(), []

    def serve():
        async def run():
            server = StreamServer(engine)
            await server.start()
            listener = await server.serve_tcp("127.0.0.1", 0)
            port.append(listener.sockets[0].getsockname()[1])
            ready.set()
            await server.wait_stopped()

        asyncio.run(run())

    thread = threading.Thread(target=serve)
    thread.start()
    try:
        assert ready.wait(30)
        yield engine, f"127.0.0.1:{port[0]}"
    finally:
        if port:
            with socket.create_connection(("127.0.0.1", port[0])) as sock:
                sock.sendall(b'{"op": "shutdown"}\n')
                sock.recv(64)
        thread.join(30)
        engine.close()
    assert not thread.is_alive()


class TestIngest:
    def test_acks_past_asyncio_default_line_limit(self, tmp_path, capsys):
        """With no ``tau`` or ``top_k`` every fact of ``S_t`` is acked:
        a first arrival at d=5, m=5 acks 2^5 · 31 facts in one line,
        past asyncio's 64 KiB default."""
        schema = nba_schema(5, 5)
        path = str(tmp_path / "wide.csv")
        save_rows(path, schema, nba_rows(3, d=5, m=5))
        with serving(schema) as (engine, address):
            rc = main(["ingest", path, "-d", ",".join(schema.dimensions),
                       "-m", ",".join(schema.measures), "--json",
                       "--connect", address])
            out, err = capsys.readouterr()
            assert rc == 0, err
            assert len(engine) == 3
        facts = out.splitlines()
        assert len(facts) > 992
        assert max(map(len, facts)) * 992 > 1 << 16


class TestClusterStatus:
    def test_json_then_a_dead_member(self, capsys):
        servers = [SocketWorkerServer().start() for _ in range(2)]
        try:
            addresses = [server.address for server in servers]
            with open_router(
                SERVICE_SCHEMA, 1, "remote", remote={"0": addresses}
            ) as engine:
                engine.observe_many(make_rows(10))
            rc = main(["cluster-status", "--json",
                       "--remote", json.dumps({"0": addresses})])
            out, err = capsys.readouterr()
            assert rc == 0, err
            assert [
                (row["replica"], row["alive"], row["rows"], row["lag"])
                for row in json.loads(out)
            ] == [(address, True, 10, 0) for address in addresses]
            probe = socket.create_server(("127.0.0.1", 0))
            dead = "127.0.0.1:%d" % probe.getsockname()[1]
            probe.close()
            rc = main(["cluster-status", "--timeout", "1", "--remote",
                       json.dumps({"0": addresses, "1": [dead]})])
            out, err = capsys.readouterr()
            assert rc == 1
            table = out.splitlines()
            assert table[0].split() == ["shard", "replica", "health",
                                        "configured", "rows", "lag",
                                        "busy_s", "rtt_ms"]
            assert [line.split()[:3] for line in table[2:]] == [
                ["0", addresses[0], "up"],
                ["0", addresses[1], "up"],
                ["1", dead, "DOWN"],
            ]
            assert "# 2 shards, 3 replicas, 1 unreachable" in err
        finally:
            for server in servers:
                server.stop()


class TestFigures:
    def test_unknown_figure(self, capsys):
        rc = main(["figures", "fig99"])
        assert rc == 2

    def test_min_prefer_plumbs_through(self, tmp_path, capsys):
        # fouls min-preferred: a low-foul line must be able to win.
        from repro.datasets import save_rows
        from repro import MIN, TableSchema

        schema = TableSchema(("player",), ("points", "fouls"), {"fouls": MIN})
        rows = [
            {"player": "A", "points": 10, "fouls": 5},
            {"player": "B", "points": 10, "fouls": 0},
        ]
        path = str(tmp_path / "f.csv")
        save_rows(path, schema, rows)
        rc = main(
            ["query", path, "-d", "player", "-m", "points,fouls",
             "--min-prefer", "fouls", "-q", "* | points, fouls"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "'player': 'B'" in out
