"""Rules over the library source itself."""

import ast
from pathlib import Path

import localscores

SOURCE = Path(localscores.__file__).parent
SWALLOWING = {"Exception", "BaseException"}


def _catch_all(handler: ast.ExceptHandler) -> bool:
    """A bare `except:` or one naming Exception / BaseException."""
    if handler.type is None:
        return True
    names = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(isinstance(n, ast.Name) and n.id in SWALLOWING for n in names)


def test_nothing_in_the_library_swallows_errors():
    # a catch-all handler hides bugs; catch the specific error instead
    paths = sorted(SOURCE.glob("*.py"))
    assert {"oracle.py", "graphs.py", "potentials.py"} <= {p.name for p in paths}
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ExceptHandler) and _catch_all(node)
    ]
    assert offenders == []


def test_catch_all_detection():
    tree = ast.parse(
        "try:\n    pass\nexcept:\n    pass\n"
        "try:\n    pass\nexcept (ValueError, Exception):\n    pass\n"
        "try:\n    pass\nexcept BaseException as e:\n    pass\n"
        "try:\n    pass\nexcept ValueError:\n    pass\n"
    )
    handlers = [n for n in ast.walk(tree) if isinstance(n, ast.ExceptHandler)]
    assert [_catch_all(h) for h in handlers] == [True, True, True, False]
