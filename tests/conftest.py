"""Import the package before any test module imports NumPy, so the suite
runs with BLAS pinned to one thread (see ``nanobert/__init__``)."""

import nanobert  # noqa: F401
