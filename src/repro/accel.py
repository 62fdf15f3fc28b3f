"""The kernel backend name printed in perfbench's ``env`` line.

``perfbench/run.py`` is its only reader; nothing in the package imports
it.  numpy is the only backend.
"""


def resolve_backend() -> str:
    return "numpy"
