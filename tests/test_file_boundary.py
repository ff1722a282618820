"""``validation`` is the package's file boundary: ``read_input`` is the one
place an input file is opened, ``write_output`` the one place an output
file is. Each maps the failures of its file to a typed error, so a second
place that opens a file would bring back the tracebacks they removed.

Every production module is parsed, not imported, and every call of
``open`` (by name or as a method, such as ``os.open`` or
``Path.open``) and of ``Path``'s ``read_*``/``write_*`` helpers is listed
with the function that makes it.
"""

import ast
from pathlib import Path

import lexjudge

PACKAGE = Path(lexjudge.__file__).resolve().parent
FILE_CALLS = {"open", "read_text", "read_bytes", "write_text", "write_bytes"}


def named_calls(path: Path, names: set[str]) -> list[tuple[str, str]]:
    """``(<module>.<function>, name)`` for every call of one of ``names``, by
    name or as a method, in a source file; a method's function is written
    ``<class>.<method>``."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in names:
                found.append((scope, name))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return found


def test_only_the_reader_and_the_writer_open_files():
    calls = sorted(
        scope for path in PACKAGE.glob("*.py") for scope, _ in named_calls(path, FILE_CALLS)
    )
    assert calls == ["validation.read_input", "validation.write_output"]
