"""Every module-level function and class of the package is used by other
package code, or is kept on :data:`KEPT` for the reason given there: no check
lives in the package that only its tests run."""

import ast
import collections
import pathlib

import cornergeo

SOURCE = pathlib.Path(cornergeo.__file__).parent

# the names no package code uses, each with the reason it stays
KEPT = {
    "preset_structure": "the README tour",
    "christoffel": "tests/test_acceptance.py imports it",
    "volume_form": "tests/test_acceptance.py imports it",
    "volume_cross": "tests/test_acceptance.py imports it",
    "nijenhuis": "the per-pair route that tests hold the batched normality tensor to",
    "n1_tensor": "the per-pair route that tests hold the batched normality tensor to",
    "lie_bracket": "the independent route test_torsion_free holds nabla_matrix to",
    "exterior_d_oneform": "the independent route test_d_oneform_two_routes_and_fd "
                          "holds d_oneform_matrix to",
    "trans_sasakian_residual": "the oracle test_acms holds classify's alpha and beta to",
    "jet_partial": "perfbench/spans.py binds it by name",
    "random_family": "perfbench/spans.py binds it by name, and test_family pins its draws",
}


def unused() -> list:
    """The module-level functions and classes of the package that no code of
    it names outside their own definition, as ``module.name``.  A use is a
    bare name, or an attribute of the defining module (``family.build_family``);
    ``__all__`` holds strings and an import binds an alias, so neither is one."""
    defined, uses = {}, collections.defaultdict(list)
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[path.stem, node.name] = range(node.lineno, node.end_lineno + 1)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses[node.id].append((None, path.stem, node.lineno))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                uses[node.attr].append((node.value.id, path.stem, node.lineno))
    return sorted(
        f"{module}.{name}" for (module, name), lines in defined.items()
        if not any(owner in (None, module) and not (at == module and line in lines)
                   for owner, at, line in uses[name])
    )


def test_every_function_and_class_is_used_or_kept():
    names = unused()
    assert sorted(name.split(".")[1] for name in names) == sorted(KEPT), names


def unused_imports() -> list:
    """The names that a module of the package imports, at any depth, and
    neither names in its code nor lists in its ``__all__``, as ``module.name``."""
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported, used = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used |= set(ast.literal_eval(node.value))
        found += [f"{path.stem}.{name}" for name in sorted(imported - used)]
    return found


def test_every_imported_name_is_used_or_exported():
    assert unused_imports() == []
