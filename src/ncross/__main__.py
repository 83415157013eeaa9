"""``python -m ncross``: the ``ncross`` command line (``ncross.cli``)."""

import sys

from . import cli

if __name__ == "__main__":
    sys.exit(cli.main())
