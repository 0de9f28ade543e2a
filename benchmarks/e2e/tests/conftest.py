"""Self-tests of the benchmark harness (not part of the tier-1 suite):

    python -m pytest benchmarks/e2e/tests -q
"""

import os
import sys

E2E = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO = os.path.dirname(os.path.dirname(E2E))
for path in (os.path.join(REPO, "src"), E2E):
    if path not in sys.path:
        sys.path.insert(0, path)
