import sys
from pathlib import Path

# The benchmark runs the program from source; so do its tests.
_SRC = str(Path(__file__).resolve().parents[2] / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
