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


def _functions(node, prefix=""):
    """(qualified name, node) of every function under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = prefix + child.name
            if not isinstance(child, ast.ClassDef):
                yield name, child
            yield from _functions(child, name + ".")
        else:
            yield from _functions(child, prefix)


def test_only_the_family_constructor_takes_standard_cl():
    # the choice of CL score lives on the family; everything else reads
    # family.standard_cl instead of passing the flag along
    takers = [
        f"{path.name}:{name}"
        for path in sorted(SOURCE.glob("*.py"))
        for name, fn in _functions(ast.parse(path.read_text(), filename=str(path)))
        if "standard_cl" in {a.arg for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs}
    ]
    assert takers == ["potentials.py:LocalPotentialFamily.__init__"]


def test_one_cli_function_builds_neighborhood_systems():
    # `graph` diagnoses exactly the system `fit` trains on only while one
    # function turns command settings into a neighborhood system
    builders = {"HypercubeNeighborhood", "BlockNeighborhood", "label_band_graph"}
    path = SOURCE / "cli.py"
    referrers = [
        name
        for name, fn in _functions(ast.parse(path.read_text(), filename=str(path)))
        if any(isinstance(n, ast.Name) and n.id in builders for n in ast.walk(fn))
    ]
    assert referrers == ["_neighborhood_system"]


def _log_f_decisions(node):
    """`callable(...)` calls and `.logs` reads under node."""
    return [
        n for n in ast.walk(node)
        if (isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "callable")
        or (isinstance(n, ast.Attribute) and n.attr == "logs")
    ]


def test_one_reader_decides_what_log_f_is():
    # every scoring route accepts and refuses the same log f only while one
    # function tells the forms apart and reads their values
    path = SOURCE / "scoring.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    deciders = [name for name, fn in _functions(tree) if _log_f_decisions(fn)]
    assert deciders == ["_log_f_reader"]


def _bool_tests(tree):
    """Line numbers of `isinstance(..., bool)` calls, bool alone or in a tuple."""
    return [
        n.lineno for n in ast.walk(tree)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "isinstance"
        and len(n.args) == 2
        and any(isinstance(t, ast.Name) and t.id == "bool"
                for t in (n.args[1].elts if isinstance(n.args[1], ast.Tuple) else [n.args[1]]))
    ]


def test_only_errors_py_decides_what_a_setting_is():
    # a count or a real setting means the same thing everywhere only while
    # `checked_count` and `checked_real` alone tell bools from numbers
    sites = [
        f"{path.name}:{line}"
        for path in sorted(SOURCE.glob("*.py"))
        for line in _bool_tests(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert sites and all(site.startswith("errors.py:") for site in sites), sites


def test_bool_test_detection():
    tree = ast.parse(
        "isinstance(a, bool)\nisinstance(a, (int, bool))\nisinstance(a, int)\nisinstance(bool, a)\n"
    )
    assert _bool_tests(tree) == [1, 2]


def test_catch_all_detection():
    tree = ast.parse(
        "try:\n    pass\nexcept:\n    pass\n"
        "try:\n    pass\nexcept (ValueError, Exception):\n    pass\n"
        "try:\n    pass\nexcept BaseException as e:\n    pass\n"
        "try:\n    pass\nexcept ValueError:\n    pass\n"
    )
    handlers = [n for n in ast.walk(tree) if isinstance(n, ast.ExceptHandler)]
    assert [_catch_all(h) for h in handlers] == [True, True, True, False]


def _ellipsis_gathers(tree):
    """Line numbers of subscripts `x[..., i]` with an entry after the Ellipsis
    that is neither a slice nor a constant (None, an integer): a gather.
    (An annotation such as `tuple[int, ...]` ends in its Ellipsis.)"""
    def after_ellipsis(elts):
        marks = [isinstance(e, ast.Constant) and e.value is Ellipsis for e in elts]
        return elts[marks.index(True) + 1:] if True in marks else []

    return [
        n.lineno for n in ast.walk(tree)
        if isinstance(n, ast.Subscript) and isinstance(n.slice, ast.Tuple)
        and not all(isinstance(e, (ast.Slice, ast.Constant)) for e in after_ellipsis(n.slice.elts))
    ]


def test_the_score_kernel_gathers_with_take():
    # the kernel's value pass gathers logs along the last axis; on numpy 2.4
    # `logs[..., idx]` took 108 us where `logs.take(idx, axis=-1)` and the
    # 1-D `logs[idx]` took about 35 us (703 x 55 positions, pl radius 2)
    path = SOURCE / "estimation.py"
    assert _ellipsis_gathers(ast.parse(path.read_text(), filename=str(path))) == []


def test_ellipsis_gather_detection():
    tree = ast.parse(
        "x[..., idx]\nx[..., None]\nx[..., None, :]\nx[..., 0]\nx[..., self.pos]\nx[idx]\nx[:, idx]\n"
        "t: tuple[tuple[float, float], ...]\nx[0, ..., idx]\n"
    )
    assert _ellipsis_gathers(tree) == [1, 5, 9]


def _pair_feature_sites(tree):
    """Line numbers where `pair_features` is defined or named."""
    return sorted(
        n.lineno for n in ast.walk(tree)
        if (isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) and n.name == "pair_features")
        or (isinstance(n, ast.Name) and n.id == "pair_features")
        or (isinstance(n, ast.Attribute) and n.attr == "pair_features")
    )


def test_no_dense_pair_features_in_the_library():
    # a Boltzmann model binds its (D, n) sign matrix; the |U| x D(D-1)/2
    # pair-feature map (397 MB for 10^5 points at D=32) is only the test
    # oracle in tests/dense_boltzmann.py
    sites = [
        f"{path.name}:{line}"
        for path in sorted(SOURCE.glob("*.py"))
        for line in _pair_feature_sites(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert sites == []


def test_pair_feature_detection():
    tree = ast.parse(
        "def pair_features(self, i):\n    pass\nf = self.pair_features(p)\ng = pair_features\n"
        "features = 1\npair_count = 2\n"
    )
    assert _pair_feature_sites(tree) == [1, 3, 4]


def _report_builds(node):
    """Line numbers of `OracleReport.build(...)` calls under node."""
    return sorted(
        n.lineno for n in ast.walk(node)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr == "build"
        and isinstance(n.func.value, ast.Name) and n.func.value.id == "OracleReport"
    )


def _builds_outside_the_tally(tree):
    """Line numbers of `OracleReport.build` calls outside the `_Tally` class."""
    inside = {line for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "_Tally"
              for line in _report_builds(node)}
    return [line for line in _report_builds(tree) if line not in inside]


def test_one_tally_reports_every_oracle_check():
    # every check folds the same non-finite rule and witness cap into its
    # report only while `_Tally` alone builds reports, and no check keeps a
    # `_fold` of its own
    path = SOURCE / "oracle.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _report_builds(tree) and _builds_outside_the_tally(tree) == []
    folds = [
        f"{path.name}:{name}"
        for path in sorted(SOURCE.glob("*.py"))
        for name, _ in _functions(ast.parse(path.read_text(), filename=str(path)))
        if name.rsplit(".", 1)[-1] == "_fold"
    ]
    assert folds == []


def test_report_build_detection():
    tree = ast.parse(
        "class _Tally:\n    def report(self):\n        return OracleReport.build(1)\n"
        "def check():\n    return OracleReport.build(2)\n"
        "x = other.build(3)\ny = OracleReport.build(4)\n"
    )
    assert _report_builds(tree) == [3, 5, 7]
    assert _builds_outside_the_tally(tree) == [5, 7]
