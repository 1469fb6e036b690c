"""Process entry of ``python -m etsmc`` and of the ``etsmc`` console script."""

import gc
import sys

from .cli import main


def entry() -> None:
    """Run the CLI as the whole process and exit with its code.

    What the imports left to the collector lives until the process ends,
    so it is frozen first: no collection during the run, nor the one at
    interpreter exit, walks it again.  cli.main itself never freezes, so
    an in-process caller keeps a normal collector.
    """
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    entry()
