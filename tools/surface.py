"""Size of a checkout's code and configuration surface.

    python tools/surface.py CHECKOUT

Prints four counts for CHECKOUT/src:
  - src lines: the lines of every .py file;
  - settable values: the optional arguments (parameters with a default) of
    every function, plus the fields of every dataclass, counted from the AST;
  - CLI flags: the optional arguments of each subcommand of the parser that
    `kgmetric.cli._build_parser` builds (help excluded);
  - exported names: the public attributes of the imported `kgmetric`
    package (no leading underscore, modules excluded).
"""

from __future__ import annotations

import argparse
import ast
import importlib
import sys
import types
from pathlib import Path


def settable_values(src: Path) -> tuple[int, int]:
    """(optional arguments, dataclass fields) over every .py file under src."""
    optional = fields = 0
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                optional += len(node.args.defaults)
                optional += sum(d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and any(
                ast.unparse(d).startswith("dataclass") for d in node.decorator_list
            ):
                fields += sum(isinstance(s, ast.AnnAssign) for s in node.body)
    return optional, fields


def cli_flags() -> dict:
    """Optional arguments of each subcommand, read from the built parser."""
    parser = importlib.import_module("kgmetric.cli")._build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: sum(
            1 for a in p._actions
            if a.option_strings and not isinstance(a, argparse._HelpAction)
        )
        for name, p in sub.choices.items()
    }


def exported_names() -> int:
    """Public non-module attributes of the kgmetric package."""
    package = importlib.import_module("kgmetric")
    return sum(
        1 for name, value in vars(package).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )


def main(argv: list) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve() / "src"
    lines = sum(len(p.read_text().splitlines()) for p in src.rglob("*.py"))
    optional, fields = settable_values(src)
    sys.path.insert(0, str(src))
    flags = cli_flags()
    print(f"src lines: {lines}")
    print(f"settable values: {optional + fields} "
          f"({optional} optional arguments, {fields} dataclass fields)")
    print(f"CLI flags: {sum(flags.values())} "
          f"({', '.join(f'{name} {n}' for name, n in flags.items())})")
    print(f"exported names: {exported_names()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
