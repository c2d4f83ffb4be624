"""Command-line entry point for ``python -m twistlab``."""

from .runner import main

if __name__ == "__main__":
    raise SystemExit(main())
