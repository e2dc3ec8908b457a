"""``python -m dynres``: the dynres command without an installed script."""
import sys

from .cli import main

sys.exit(main())
