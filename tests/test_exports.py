import paulimc


def test_every_exported_name_resolves():
    # the export list must follow deletions from the modules it re-exports
    missing = [name for name in paulimc.__all__ if not hasattr(paulimc, name)]
    assert missing == []
    assert len(set(paulimc.__all__)) == len(paulimc.__all__)


def test_deleted_ring_and_witness_names_stay_gone():
    for name in ("as_float", "parse_exact", "Witness"):
        assert not hasattr(paulimc, name)
    for name in ("as_float", "parse_exact", "_EXACT_RE"):
        assert not hasattr(paulimc.weights, name)
    for name in ("from_int", "to_float", "_coerce", "__sub__", "__rsub__",
                 "__neg__"):
        assert not hasattr(paulimc.weights.ExactWeight, name)
