"""``python -m ormaps``: the same command-line tool as ``ormaps``."""

from . import cli

raise SystemExit(cli.main())
