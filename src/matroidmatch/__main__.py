"""python -m matroidmatch: the matroidmatch command, without an install."""
from .cli import main

raise SystemExit(main())
