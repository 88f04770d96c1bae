import types

import cgaosc


def test_submodules_are_not_shadowed():
    import cgaosc.spectrum as spectrum_module
    import cgaosc.transform as transform_module
    assert isinstance(spectrum_module, types.ModuleType)
    assert isinstance(transform_module, types.ModuleType)
    assert callable(spectrum_module.spectrum)
    assert callable(transform_module.transform)


def test_public_names_resolve():
    for name in cgaosc.__all__:
        assert getattr(cgaosc, name) is not None, name
