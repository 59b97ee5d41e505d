"""``python -m fano95``: the ``audit`` command."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
