"""Every example script must run clean (small workloads).

Examples are the first thing a new user executes; breaking one is a
release blocker, so they are exercised as subprocesses here, in which
the test-only packages cannot be imported: an example needs NumPy and
the package alone.
"""

import os
import subprocess
import sys

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "examples")

#: Runs the script ``argv[1]`` as ``__main__`` with ``pytest`` and
#: ``hypothesis`` unimportable.
NUMPY_ONLY = (
    "import runpy, sys\n"
    "sys.modules.update(pytest=None, hypothesis=None)\n"
    "sys.argv = sys.argv[1:]\n"
    "runpy.run_path(sys.argv[0], run_name='__main__')\n"
)


def run_example(name, *args, timeout=120):
    return subprocess.run(
        [sys.executable, "-c", NUMPY_ONLY, os.path.join(EXAMPLES_DIR, name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestExamples:
    def test_quickstart(self):
        proc = run_example("quickstart.py")
        assert proc.returncode == 0, proc.stderr
        assert "195 pairs" in proc.stdout
        assert "prominence" in proc.stdout

    def test_algorithm_comparison(self):
        proc = run_example("algorithm_comparison.py", "60")
        assert proc.returncode == 0, proc.stderr
        assert "identical fact sets" in proc.stdout

    def test_nba_news_feed(self):
        proc = run_example("nba_news_feed.py", "150", "10")
        assert proc.returncode == 0, proc.stderr
        assert "prominent facts from 150 tuples" in proc.stdout

    def test_weather_extremes(self):
        proc = run_example("weather_extremes.py", "150")
        assert proc.returncode == 0, proc.stderr
        assert "weather alerts raised" in proc.stdout

    def test_stock_alerts(self):
        proc = run_example("stock_alerts.py", "250")
        assert proc.returncode == 0, proc.stderr
        assert "market alerts raised" in proc.stdout

    def test_record_watch(self):
        proc = run_example("record_watch.py", "200", "60")
        assert proc.returncode == 0, proc.stderr
        assert "windowed records spotted" in proc.stdout
