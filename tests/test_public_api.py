"""The package's public names: every entry of ``csdc.__all__`` resolves, once,
so that ``from csdc import *`` imports them all."""
import csdc


def test_all_names_resolve():
    assert [name for name in csdc.__all__ if not hasattr(csdc, name)] == []


def test_all_has_no_duplicates():
    assert len(set(csdc.__all__)) == len(csdc.__all__)
