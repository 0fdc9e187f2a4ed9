"""Every module-level function and class in `src/asmsim/`, and every method
and property of its classes, is public API or has a caller in the library or
the benchmark; code that only tests call belongs in `tests/`. The README's
library example runs as written."""

import ast
import os
import re

import asmsim
from asmsim.corpus import save_dataset
from asmsim.synthetic import SynthConfig, generate

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


def _read_elsewhere(name, node, module, src, bench):
    """Whether the library or the benchmark reads `name`; its own module may
    read it too, but not from inside its own definition `node`."""
    readers = [_uses(t, skip=node if m == module else None) for m, t in src.items()]
    readers += [_uses(t) for t in bench.values()]
    return any(name in set(r) for r in readers)


def test_no_library_name_is_only_called_by_tests():
    src, bench = _parse_dir(SRC), _parse_dir(BENCH)
    unused = []
    for module, tree in src.items():
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    or node.name in asmsim.__all__):
                continue
            if not _read_elsewhere(node.name, node, module, src, bench):
                unused.append(f"{module[:-3]}.{node.name}")
    assert not unused, f"only tests use: {unused}"


# argparse calls the override; the README documents the other two as public API
CALLED_FROM_OUTSIDE = {"cli._Parser.error", "models.Backbone.param_count",
                       "models.Backbone.fingerprint"}


def test_no_method_or_property_is_only_called_by_tests():
    src, bench = _parse_dir(SRC), _parse_dir(BENCH)
    unused = []
    for module, tree in src.items():
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            for node in cls.body:
                if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        or re.fullmatch(r"__\w+__", node.name)):     # Python calls dunders
                    continue
                name = f"{module[:-3]}.{cls.name}.{node.name}"
                if (name not in CALLED_FROM_OUTSIDE
                        and not _read_elsewhere(node.name, node, module, src, bench)):
                    unused.append(name)
    assert not unused, f"only tests use: {unused}"


def test_readme_library_example_runs(tmp_path, monkeypatch):
    """The README's python block, verbatim, on a corpus large enough for its
    32-family pools, and every `from asmsim... import ...` the README cites."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    (block,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    imports = re.findall(r"`(from asmsim[\w.]* import \w+)`", readme)
    assert imports
    save_dataset(generate(SynthConfig(n_families=96, seed=0)), tmp_path / "corpus.jsonl")
    monkeypatch.chdir(tmp_path)
    for line in imports:
        exec(line, {})
    exec(block, {})
    assert (tmp_path / "model.ckpt").exists()
