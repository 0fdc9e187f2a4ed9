"""Every module-level function and class in `src/asmsim/` is public API or
has a caller in the library or the benchmark; code that only tests call
belongs in `tests/`."""

import ast
import os

import asmsim

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "asmsim")
BENCH = os.path.join(ROOT, "perfbench")


def _parse_dir(path):
    trees = {}
    for name in sorted(os.listdir(path)):
        if name.endswith(".py"):
            with open(os.path.join(path, name), encoding="utf-8") as fh:
                trees[name] = ast.parse(fh.read())
    return trees


def _uses(node, skip=None):
    """Names that `node` reads as a Name or an Attribute, outside the subtree `skip`;
    an import binds a name but does not read it."""
    for child in ast.iter_child_nodes(node):
        if child is skip:
            continue
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr
        yield from _uses(child, skip)


def test_no_library_name_is_only_called_by_tests():
    src, bench = _parse_dir(SRC), _parse_dir(BENCH)
    unused = []
    for module, tree in src.items():
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    or node.name in asmsim.__all__):
                continue
            # its own module may use it too, but not from inside its own definition
            readers = [_uses(t, skip=node if m == module else None) for m, t in src.items()]
            readers += [_uses(t) for t in bench.values()]
            if not any(node.name in set(r) for r in readers):
                unused.append(f"{module[:-3]}.{node.name}")
    assert not unused, f"only tests use: {unused}"
