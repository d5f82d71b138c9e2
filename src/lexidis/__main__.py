"""``python -m lexidis``: the command line of ``lexidis.cli``."""
import sys

from .cli import main

sys.exit(main())
