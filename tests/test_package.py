"""The package namespace."""

import holoflow


def test_every_exported_name_resolves():
    assert [name for name in holoflow.__all__ if not hasattr(holoflow, name)] == []
    assert len(set(holoflow.__all__)) == len(holoflow.__all__)
