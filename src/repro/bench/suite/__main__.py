"""Entry point: ``python -m repro.bench.suite`` or ``python3 src/repro/bench/suite``.

Run as a directory, the suite makes the repository's ``src`` importable
itself, so it needs no installed package and no ``PYTHONPATH``.  A run's
set-up time counts from this file's first line, so it includes importing
the program.
"""

import time

STARTED = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

if not __package__:
    _src = Path(__file__).resolve().parents[3]
    if not (_src / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"benchmark suite: no program sources under {_src}\n")
        sys.exit(2)
    sys.path[0] = str(_src)

from repro.bench.suite.cli import main  # noqa: E402

sys.exit(main(started=STARTED))
