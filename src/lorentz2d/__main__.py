"""``python -m lorentz2d``: the ``lorentz2d`` command."""

from .cli import main_entry

if __name__ == "__main__":
    main_entry()
