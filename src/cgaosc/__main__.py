"""`python -m cgaosc`: the command-line front end of cgaosc.cli."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
