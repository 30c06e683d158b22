"""Import codegraph from the source tree next to this benchmark.

The benchmark runs against the checkout it sits in, never against an
installed copy, so a run in a directory without ``src/codegraph`` stops
with an error instead of measuring some other code.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

sys.path.insert(0, str(SRC))
try:
    import codegraph
except ImportError as exc:
    raise SystemExit(f"perfbench: cannot import codegraph from {SRC}: {exc}")
if Path(codegraph.__file__).resolve().parent.parent != SRC:
    raise SystemExit(f"perfbench: codegraph was imported from {codegraph.__file__}, not from {SRC}")
