import paulimc


def test_every_exported_name_resolves():
    # the export list must follow deletions from the modules it re-exports
    missing = [name for name in paulimc.__all__ if not hasattr(paulimc, name)]
    assert missing == []
    assert len(set(paulimc.__all__)) == len(paulimc.__all__)
