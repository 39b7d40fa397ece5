"""Count the lines of each source file of qelicit by kind, and its options.

    python3 tools/lines.py [source-dir]

The directory defaults to ``src/qelicit`` beside this script's parent.
Each ``.py`` file's lines are split four ways:

- blank: a line that holds only whitespace, in a docstring too;
- docstring: the other lines of the first string statement of a module,
  class or function;
- comment: a line that holds only a comment;
- code: every other line.

A file's options are the parameters with a default of its public
functions and of the public methods of its public classes, and the
fields with a default of its public classes; a name is public unless it
starts with an underscore.  A field declared ``field(init=False, ...)``
is not an option, since no caller can set it.  They are read from the syntax tree, so the
package is not imported.  One row is printed per file, then the total.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.Module) -> set:
    """The 1-based numbers of the lines that docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> dict:
    """The file's lines by kind, and their total."""
    text = path.read_text()
    docs = docstring_lines(ast.parse(text))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        kind = ("blank" if not stripped else "docstring" if number in docs
                else "comment" if stripped.startswith("#") else "code")
        counts[kind] += 1
    counts["total"] = sum(counts.values())
    return counts


def _defaulted(fn) -> list:
    # the names of fn's parameters that have a default
    a = fn.args
    positional = a.posonlyargs + a.args
    named = positional[len(positional) - len(a.defaults):] + [
        k for k, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return [p.arg for p in named]


def _settable(value) -> bool:
    # False for field(init=False, ...), a field the constructor does not take
    name = getattr(value, "func", None)
    return not (isinstance(value, ast.Call) and getattr(name, "id", getattr(name, "attr", None)) == "field"
                and any(k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
                        for k in value.keywords))


def options(path: Path) -> list:
    """The file's options as ``function.parameter``, ``Class.method.parameter`` or ``Class.field``."""
    found = []
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.parse(path.read_text()).body:
        if getattr(node, "name", "_").startswith("_"):  # a private name, or no name (an import, an assignment)
            continue
        if isinstance(node, functions):
            found += [f"{node.name}.{p}" for p in _defaulted(node)]
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions) and not item.name.startswith("_"):
                    found += [f"{node.name}.{item.name}.{p}" for p in _defaulted(item)]
                elif (isinstance(item, ast.AnnAssign) and item.value is not None and isinstance(item.target, ast.Name)
                      and _settable(item.value)):
                    found.append(f"{node.name}.{item.target.id}")
    return [name for name in found if not name.rsplit(".", 1)[1].startswith("_")]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "qelicit"
    rows = {path.name: {**count(path), "options": len(options(path))} for path in sorted(root.glob("*.py"))}
    rows["total"] = {k: sum(r[k] for r in rows.values()) for k in (*KINDS, "total", "options")}
    print(f"{'file':16s} {'total':>6s} " + " ".join(f"{k:>9s}" for k in (*KINDS, "options")))
    for name, r in rows.items():
        print(f"{name:16s} {r['total']:6d} " + " ".join(f"{r[k]:9d}" for k in (*KINDS, "options")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
