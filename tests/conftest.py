"""Every warning raised in a test under tests/ fails that test."""

from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent


def pytest_collection_modifyitems(items):
    # prepended, so a test's own filterwarnings marks still take precedence
    for item in items:
        if HERE in item.path.resolve().parents:
            item.add_marker(pytest.mark.filterwarnings("error"), append=False)
