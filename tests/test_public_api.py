"""Package export contract: every name the package lists as public exists,
and a star import brings exactly those names in."""

import mlmc_evidence


def test_every_exported_name_resolves():
    missing = [name for name in mlmc_evidence.__all__ if not hasattr(mlmc_evidence, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from mlmc_evidence import *", namespace)
    assert set(mlmc_evidence.__all__) <= set(namespace)
