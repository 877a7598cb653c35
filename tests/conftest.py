import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

# pyproject's pythonpath reaches only this process; the tests that run
# ``python -m grpoly`` or a script in a subprocess need src on PYTHONPATH too
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


def pytest_terminal_summary(terminalreporter):
    """Repeat the ``ACCEPTANCE NN`` verdict lines that capture held, so a
    plain run (no ``-s``) still shows each criterion's verdict and time."""
    lines = sorted(line for key in ("passed", "failed")
                   for report in terminalreporter.stats.get(key, [])
                   for line in report.capstdout.splitlines()
                   if line.startswith("ACCEPTANCE "))
    if lines:
        terminalreporter.section("acceptance")
        for line in lines:
            terminalreporter.write_line(line)
