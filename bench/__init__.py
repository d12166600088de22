"""The repository's benchmark: five workloads, six end-to-end metrics,
and a traced round that splits each workload's time by layer.

Run ``python3 -m bench --help`` from the repository root; ``README.md``
in this directory says what is measured and why.
"""

import sys
from pathlib import Path

# The benchmark drives the system under test from a source checkout:
# the package lives in ``src/`` beside this directory.
_SRC = Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
