"""``python -m semidop``: the command line of ``semidop.cli``."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
