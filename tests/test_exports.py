"""The package's public names all resolve."""

import nomalab


def test_every_exported_name_resolves():
    missing = [name for name in nomalab.__all__ if not hasattr(nomalab, name)]
    assert missing == []
