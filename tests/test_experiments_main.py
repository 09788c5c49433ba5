"""Tests for the ``repro-facts figures`` command."""

from repro.cli import main


class TestMain:
    def test_single_figure_tiny_scale(self, capsys):
        rc = main(["figures", "fig7a", "--scale", "0.15"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "Fig.7a" in captured.out
        assert "bottomup" in captured.out
        assert "# fig7a took" in captured.err

    def test_tuple_returning_figure(self, capsys):
        rc = main(["figures", "fig15", "--scale", "0.05"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Fig.15a" in out and "Fig.15b" in out

    def test_unknown_figure(self, capsys):
        rc = main(["figures", "fig_nope"])
        assert rc == 2
        assert "unknown figure" in capsys.readouterr().err
