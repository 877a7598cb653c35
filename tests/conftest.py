import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

# pyproject's pythonpath reaches only this process; the tests that run
# ``python -m grpoly`` or a script in a subprocess need src on PYTHONPATH too
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
