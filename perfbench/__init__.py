"""perfbench — the repository's benchmark (see perfbench/README.md).

Run one workload with ``python3 -m perfbench --workload W --seed N
--seconds S --trace 0|1`` from the repository root; the last line of
standard output is the JSON result.  Everything here measures the engine
under ``src/`` from outside, through its public functions; nothing under
``src/`` is edited.
"""

import os
import sys

# The benchmark measures the engine of the checkout it sits in, never an
# installed copy: put that checkout's src/ ahead of everything else.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if os.path.isdir(os.path.join(_SRC, "repro")) and _SRC not in sys.path:
    sys.path.insert(0, _SRC)
