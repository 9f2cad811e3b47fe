"""The package's public surface."""

import streamfuse


def test_every_exported_name_resolves():
    missing = [name for name in streamfuse.__all__ if not hasattr(streamfuse, name)]
    assert missing == []
