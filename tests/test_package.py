"""The package's public surface."""

import inspect
import pickle

import pytest

import streamfuse
from streamfuse import errors


def test_every_exported_name_resolves():
    missing = [name for name in streamfuse.__all__ if not hasattr(streamfuse, name)]
    assert missing == []


# A forked worker sends its exception to the parent pickled, so every error
# class must come back with its type, message and attributes.
@pytest.mark.parametrize("cls", [
    obj for obj in vars(errors).values()
    if inspect.isclass(obj) and issubclass(obj, errors.StreamFuseError)
], ids=lambda cls: cls.__name__)
def test_error_survives_pickling(cls):
    args = ("window", "the entropy method does not read it") if cls is errors.SettingError \
        else ("utt 3: stream payload truncated",)
    e = cls(*args)
    back = pickle.loads(pickle.dumps(e))
    assert type(back) is cls
    assert str(back) == str(e) and back.args == e.args
    assert vars(back) == vars(e)
