"""Package surface: the names ``from qndnet import *`` exports."""

import types

import qndnet


def test_all_names_resolve_and_are_not_modules():
    assert qndnet.__all__
    for name in qndnet.__all__:
        value = getattr(qndnet, name)
        assert not isinstance(value, types.ModuleType), name


def test_star_import_exports_the_public_api():
    namespace: dict = {}
    exec("from qndnet import *", namespace)
    assert {"run_bell_qnd", "run_ghz_qnd", "security_sweep", "StateVector"} <= set(namespace)
    assert not {"auth", "bell", "bell_operator", "ghz", "statevector"} & set(namespace)
