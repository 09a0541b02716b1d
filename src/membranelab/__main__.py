"""``python -m membranelab``: the command line front end of ``membranelab.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
