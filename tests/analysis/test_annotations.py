"""Every def in ``repro.analysis`` is fully annotated.

The CI ``lint`` job runs mypy with ``disallow_untyped_defs`` on the
analysis package.  This scan enforces the same rule without mypy: every
function and method, nested ones included, annotates each parameter
(a method's ``self``/``cls`` excepted) and its return type.
"""

import ast
from pathlib import Path

import repro.analysis

PACKAGE = Path(repro.analysis.__file__).parent


def unannotated(tree):
    """(line, name, what) for every def missing an annotation."""
    gaps = []

    def visit(node, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                params = args.posonlyargs + args.args
                static = any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in child.decorator_list
                )
                if in_class and not static:
                    params = params[1:]
                params = params + args.kwonlyargs + [
                    p for p in (args.vararg, args.kwarg) if p is not None
                ]
                gaps.extend(
                    (child.lineno, child.name, f"parameter {p.arg}")
                    for p in params if p.annotation is None
                )
                if child.returns is None:
                    gaps.append((child.lineno, child.name, "return"))
                visit(child, False)
            else:
                visit(child, isinstance(child, ast.ClassDef))

    visit(tree, False)
    return gaps


def test_scan_finds_missing_annotations():
    tree = ast.parse(
        "class C:\n"
        "    def m(self, a: int) -> None:\n"
        "        def inner(b):\n"
        "            return b\n"
        "    @staticmethod\n"
        "    def s(x) -> int:\n"
        "        return x\n"
    )
    assert unannotated(tree) == [
        (3, "inner", "parameter b"),
        (3, "inner", "return"),
        (6, "s", "parameter x"),
    ]


def test_analysis_package_is_fully_annotated():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    gaps = [
        f"{path.name}:{line} {name}: {what}"
        for path in modules
        for line, name, what in unannotated(ast.parse(path.read_text()))
    ]
    assert gaps == []
