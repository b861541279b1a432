"""``python3 -m tdlab``: the tdlab command line."""

from .cli import entry_point

if __name__ == "__main__":
    entry_point()
