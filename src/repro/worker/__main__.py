"""``python -m repro.worker --serve`` — run a distributed-execution worker.

A separate ``__main__`` shim (rather than running
``repro.utils.coordinator`` directly under ``-m``) because the package
``__init__`` imports that module: runpy would then execute a second copy
of it and warn about the double import.
"""

import sys

from repro.utils.coordinator import main

if __name__ == "__main__":
    sys.exit(main())
