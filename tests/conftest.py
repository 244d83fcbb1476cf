"""Imports hypothesis's patch writer before any test runs.

When a property test fails, hypothesis's pytest plugin imports
`hypothesis.extra._patching` to write the failing example as a patch, and
that module imports libcst where it is installed.  libcst raises a
DeprecationWarning on import, which `python -W error` turns into an
INTERNALERROR that hides the failing assertion.  Importing the module
here, once, with that one warning ignored, lets the report show the
assertion; every test still runs under `-W error`.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
