"""Put the benchmark's modules and the program's source tree on sys.path."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from common import use_source_tree  # noqa: E402

use_source_tree()
