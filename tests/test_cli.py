"""Tests for the repro-facts command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.datasets import nba_rows, nba_schema, save_rows


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
        import json

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
        import json

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
        import json

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
        (line,) = [
            line for line in err.splitlines()
            if line.startswith("# service stats: ")
        ]
        stats = json.loads(line[len("# service stats: "):])
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
