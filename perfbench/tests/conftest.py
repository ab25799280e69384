import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]

# thread pinning must precede the first numpy import, as in run.py
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"})
for path in (BENCH, BENCH.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
