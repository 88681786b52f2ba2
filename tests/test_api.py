import types

import ellipkurt


def test_all_declares_the_public_namespace():
    # ellipkurt.__all__ is the supported API: no name twice, every name
    # resolves, and every public attribute of the package but its
    # submodules is declared.
    names = ellipkurt.__all__
    assert len(names) == len(set(names))
    for name in names:
        getattr(ellipkurt, name)
    public = {name for name, value in vars(ellipkurt).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(names)
