"""``python -m padelab``: the command line of :mod:`padelab.cli`."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
