"""Every warning raised in a test under tests/ fails that test.

One warning is let through: libcst, which hypothesis imports to report a
failing example, warns that mypy_extensions.TypedDict is deprecated.  Under
the error filter that import ends the whole pytest session.
"""

from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
_LIBCST_IMPORT = "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"


def pytest_collection_modifyitems(items):
    # prepended, so a test's own filterwarnings marks still take precedence
    for item in items:
        if HERE in item.path.resolve().parents:
            item.add_marker(pytest.mark.filterwarnings("error", _LIBCST_IMPORT), append=False)
