"""The package's public names."""

import mqsolve


def test_each_public_name_is_listed_once_and_resolves():
    names = mqsolve.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(mqsolve, name) is not None, name
    assert {"FAMILIES", "InconsistentRhsError", "SubspaceCache",
            "run_explicit", "__version__"} <= set(names)
