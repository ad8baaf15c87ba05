"""``python -m lorarake``: the lorarake command line tool."""
from .cli import main

raise SystemExit(main())
