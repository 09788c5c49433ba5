"""Tests for the repro-facts command-line interface."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import build_parser, main
from repro.datasets import nba_rows, nba_schema, save_rows
from tests.strategies import SERVICE_SCHEMA, make_rows

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_python(code, *args, timeout=60):
    """Run ``code`` in a fresh interpreter (``src`` and the repo root
    importable), so what it imports is not what this test process
    already loaded."""
    path = os.pathsep.join([os.path.join(REPO, "src"), REPO])
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=REPO,
        env=dict(os.environ, PYTHONPATH=path),
    )


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


def loaded(proc, marker="LOADED "):
    """The module list a spy script printed after ``marker``."""
    assert proc.returncode == 0, proc.stderr
    (line,) = [
        line for line in proc.stdout.splitlines() if line.startswith(marker)
    ]
    return json.loads(line[len(marker):])


class TestLeanWorkers:
    """Each serving process imports only the layers it runs: the
    asyncio tier (≈ 4 MB of peak RSS) stays out of every process that
    never runs an event loop.  Each check runs in a fresh interpreter."""

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
