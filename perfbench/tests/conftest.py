import sys
from pathlib import Path

# the benchmark's modules, and the pournet sources of this tree
_HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(_HERE.parent), str(_HERE.parents[1] / "src")]
