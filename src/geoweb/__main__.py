"""Entry point of `python -m geoweb` and of the installed `geoweb` script.

A process runs one CLI command and exits, so the heap its imports build
(numpy's and this package's modules, about 22,000 objects the cyclic
collector tracks) lives until exit.  A full collection would still scan
it, and so would the collection at interpreter exit.  `run` freezes that
heap (`gc.freeze`) once the CLI's modules are imported, which moves it
out of the collector's generations; the collector stays on for
everything the command allocates.  `cli.main` itself does not touch the
collector, so in-process callers keep the default behaviour.
"""

import gc
import sys

from .cli import main


def run() -> int:
    """Run the CLI command in sys.argv with the import-time heap frozen."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
