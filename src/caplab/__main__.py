"""``python -m caplab``: the ``caplab`` command line."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
