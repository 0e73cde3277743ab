"""Every test starts and ends with no opening draw held by verify's memo,
so a kernel count or a memo check never reads a draw another test left."""

import pytest

from dualspace import verify


@pytest.fixture(autouse=True)
def no_shared_draw():
    verify._shared_draw.cache_clear()
    yield
    verify._shared_draw.cache_clear()
