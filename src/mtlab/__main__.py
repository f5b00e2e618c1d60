"""``python -m mtlab``: the command line without the installed ``mtlab`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
