"""Run the command-line frontend as ``python -m casowron``."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
