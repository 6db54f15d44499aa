"""Every function parameter in the package is read by its function.

A parameter that the body never reads is a setting that does nothing: a caller
can pass any value and get the same result.  The scan reads each function's
own body, nested functions included; ``self`` and ``cls`` are exempt, and so
are lambdas, which take the arguments their caller's callback signature fixes.
"""

import ast
from pathlib import Path

import pbrlab

PACKAGE = Path(pbrlab.__file__).parent


def unread_parameters(source: str, filename: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        read = {
            name.id
            for stmt in node.body
            for name in ast.walk(stmt)
            if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)
        }
        found += [
            f"{filename}:{node.lineno} {node.name}({p.arg})"
            for p in params
            if p is not None and p.arg not in ("self", "cls") and p.arg not in read
        ]
    return found


def test_scan_finds_an_unread_parameter():
    assert unread_parameters("def f(a, b):\n    return a\n", "m.py") == ["m.py:1 f(b)"]
    assert unread_parameters("def f(a):\n    def g():\n        return a\n    return g\n", "m.py") == []


def test_every_parameter_is_read():
    unread = [
        hit
        for path in sorted(PACKAGE.glob("*.py"))
        for hit in unread_parameters(path.read_text(encoding="utf-8"), path.name)
    ]
    assert unread == []
