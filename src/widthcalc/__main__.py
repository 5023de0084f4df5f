"""``python -m widthcalc ...``: the command line of :mod:`widthcalc.cli`."""

import sys

from .cli import main

sys.exit(main())
