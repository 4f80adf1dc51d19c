"""The package's public namespace."""

import itsketch


def test_all_names_resolve():
    missing = [name for name in itsketch.__all__ if not hasattr(itsketch, name)]
    assert missing == []
    assert len(set(itsketch.__all__)) == len(itsketch.__all__)
