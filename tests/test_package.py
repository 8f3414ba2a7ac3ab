"""The package root: every exported name resolves."""

import sliceset


def test_every_name_in_all_resolves():
    missing = [name for name in sliceset.__all__ if not hasattr(sliceset, name)]
    assert missing == []
