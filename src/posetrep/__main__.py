"""``python -m posetrep``: the same command line as the ``posetrep`` script."""

from .cli import run

if __name__ == "__main__":
    run()
