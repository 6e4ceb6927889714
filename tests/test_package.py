import ast
import pathlib
import re
import types

import pentalab


def test_all_names_the_public_namespace():
    # __all__ and the imports of __init__ are kept by hand; neither may
    # list a name the other lacks
    public = [name for name, value in vars(pentalab).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)]
    assert sorted(pentalab.__all__) == sorted(public)


def test_every_function_and_class_has_a_caller():
    # a module-level function or class is either public (in __all__) or
    # named somewhere in the package outside its own definition
    files = {path.name: path.read_text().splitlines()
             for path in pathlib.Path(pentalab.__file__).parent.glob("*.py")}
    orphans = []
    for name, lines in sorted(files.items()):
        for node in ast.parse("\n".join(lines)).body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name in pentalab.__all__):
                continue
            word = re.compile(rf"\b{node.name}\b")
            if not any(word.search(line)
                       for other, text in files.items()
                       for n, line in enumerate(text, 1)
                       if other != name
                       or not node.lineno <= n <= node.end_lineno):
                orphans.append(f"{name}:{node.name}")
    assert orphans == []
