"""`python -m asymcap`: the same command line as the `asymcap` script."""

from .cli import main_entry

if __name__ == "__main__":
    main_entry()
