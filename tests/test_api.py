"""The package's public name list."""

import uapaudio


def test_all_is_sorted_without_duplicates():
    assert uapaudio.__all__ == sorted(set(uapaudio.__all__))


def test_every_public_name_resolves():
    for name in uapaudio.__all__:
        assert hasattr(uapaudio, name), name
