"""The package's public names."""

import thermocover


def test_every_exported_name_resolves_once():
    names = thermocover.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(thermocover, name)]
    assert missing == []
