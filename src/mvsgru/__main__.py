"""``python -m mvsgru``: the command-line front end (see ``cli.main``)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
