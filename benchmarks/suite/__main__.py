"""``python -m benchmarks.suite`` is ``python3 benchmarks/suite/run.py``."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import main  # noqa: E402 - the suite's modules import each other by bare name

sys.exit(main())
