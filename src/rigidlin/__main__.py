"""``python -m rigidlin``: the command-line front end, as ``rigidlin``."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
