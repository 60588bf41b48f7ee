"""`python -m trainmem`: the `trainmem` command."""

from .cli import main

raise SystemExit(main())
