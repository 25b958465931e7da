import sys
import warnings

sys.path.insert(0, "tests")

pytest_plugins = ["pytester"]

# When a property fails, hypothesis's pytest plugin writes a patch for it
# through hypothesis.extra._patching, whose libcst import warns once
# (mypy_extensions.TypedDict is deprecated).  Under the
# error::DeprecationWarning filter that warning would raise inside the
# report hook, an INTERNALERROR that hides the failure and stops the
# run, so the module is imported here, with that warning ignored, before
# any filter applies.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401
