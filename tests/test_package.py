import types

import pentalab


def test_all_names_the_public_namespace():
    # __all__ and the imports of __init__ are kept by hand; neither may
    # list a name the other lacks
    public = [name for name, value in vars(pentalab).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)]
    assert sorted(pentalab.__all__) == sorted(public)
