"""Entry point of `python -m geoweb` and of the installed `geoweb` script.

A process runs one CLI command and exits, so the heap its imports build
(numpy's and this package's modules, about 22,000 objects the cyclic
collector tracks) lives until exit.  Collecting while it is built would
scan it again and again for little garbage (peak RSS rises by under
0.1 MB without those collections), so the collector is off while the
CLI's modules import.  `run` then freezes that
heap (`gc.freeze`), which moves it out of the collector's generations, so
neither a full collection nor the one at interpreter exit scans it, and
turns the collector back on if it was on: it runs as usual for everything
the command allocates.  Importing this module without calling `run` leaves
the collector off; `cli.main` itself does not touch the collector, so
in-process callers keep the default behaviour.
"""

import gc
import sys

_COLLECTING = gc.isenabled()
gc.disable()
from .cli import main  # noqa: E402  (imported with the collector off)


def run() -> int:
    """Run the CLI command in sys.argv with the import-time heap frozen."""
    gc.freeze()
    if _COLLECTING:
        gc.enable()
    return main()


if __name__ == "__main__":
    sys.exit(run())
