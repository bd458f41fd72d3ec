"""The package's lazy public surface."""

import pgf


def test_every_lazy_export_resolves():
    # a pruned function whose export line stayed behind shows up here
    missing = []
    for name in sorted(pgf._EXPORTS):
        try:
            getattr(pgf, name)
        except AttributeError:
            missing.append(name)
    assert missing == []
