"""``python -m jumpdiff``: the ``jumpdiff`` command line (:func:`jumpdiff.cli.main`)."""

import sys

from .cli import main

sys.exit(main())
