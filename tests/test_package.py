"""The package's public names."""

import lorentz2d


def test_all_is_sorted_unique_and_resolves():
    names = lorentz2d.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(lorentz2d, name)]
    assert missing == []
