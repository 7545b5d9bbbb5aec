import contextlib
import importlib
import os
import sys
import warnings

sys.path.insert(0, os.path.dirname(__file__))

# When a property test fails, hypothesis's pytest plugin imports this module
# to print a patch.  Its import raises a DeprecationWarning (libcst
# subclasses mypy_extensions.TypedDict), which the project's
# warnings-as-errors setting would turn into an INTERNALERROR that hides the
# failure and its falsifying example.  Importing it once here, with that
# warning ignored, leaves every test under the setting.  Without libcst the
# import fails and the plugin skips the patch, as it does on its own.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    importlib.import_module("hypothesis.extra._patching")
