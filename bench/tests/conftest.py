"""``python -m pytest bench/tests`` from the repo root: put ``src/`` and the
root on the path, the way ``bench/run.py`` does for itself."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)
