"""Run the command line as `python -m spherewf`."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
