"""Script entry point: ``python3 benchmarks/ledger/run.py ...``.

The benchmark driver runs this file from the root of a plain checkout
(no installed package, no ``PYTHONPATH``), so the two import roots —
the checkout itself for ``benchmarks.ledger`` and ``src`` for ``repro``
— are put on ``sys.path`` here and nowhere else.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

if __name__ == "__main__":
    from benchmarks.ledger.cli import main
    sys.exit(main())
