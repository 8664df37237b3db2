import importlib

import qmonogamy

# Bound wrappers and a second cut rule that restated what evaluate_all's entries and pure_concurrence_sq give
REMOVED = ["ab_rest_lower", "ab_rest_upper", "abc_rest_lower_diff", "abc_rest_lower_hub", "abc_rest_upper",
           "concurrence_pure", "Partition", "is_weight1_supported", "concurrence_chain"]
MODULES = ["qmonogamy", "qmonogamy.concurrence", "qmonogamy.monogamy", "qmonogamy.states", "qmonogamy.cases",
           "qmonogamy.cli"]


def test_every_public_name_resolves():
    assert len(qmonogamy.__all__) == len(set(qmonogamy.__all__))
    missing = [name for name in qmonogamy.__all__ if not hasattr(qmonogamy, name)]
    assert not missing
    namespace = {}
    exec("from qmonogamy import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(qmonogamy.__all__)


def test_removed_names_are_gone():
    for module in map(importlib.import_module, MODULES):
        assert [name for name in REMOVED if hasattr(module, name)] == [], module.__name__
