"""`python -m kasamilab`: the same command line as the `kasamilab` script."""

import sys

from .cli import main

sys.exit(main())
