"""Run the command line interface as `python -m bisteklov`."""

from .cli import main

if __name__ == "__main__":
    main()
