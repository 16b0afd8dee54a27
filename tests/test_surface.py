"""The package's public surface: the root exports, the README quick tour
that uses them, and no module-level function or class left without a
caller."""

import ast
import re
from pathlib import Path

import quditreduce

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "quditreduce"

ROOT_NAMES = [
    "CapacityError",
    "DecompositionTrace",
    "InternalConsistencyError",
    "InvalidIndexError",
    "InvalidRotationError",
    "NonConvergenceError",
    "OracleFailureError",
    "PureState",
    "invert_trace",
    "product_state",
    "random_state",
    "reduce",
    "schmidt_coefficients",
    "term_bound",
]


def test_root_exports_are_the_fourteen_names():
    assert sorted(quditreduce.__all__) == ROOT_NAMES
    for name in ROOT_NAMES:
        assert getattr(quditreduce, name) is not None


def test_readme_quick_tour_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library quick tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(code, "README quick tour", "exec"), {})


def test_every_definition_has_a_caller():
    # A definition counts as used when another top-level statement of
    # src/ names it (as a name or an attribute), or when perfbench/ or the
    # README mentions it. __init__.py's re-exports do not count.
    modules = [path for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"]
    defined, used = set(), set()
    for path in modules:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            names = {sub.id for sub in ast.walk(node)
                     if isinstance(sub, ast.Name)}
            names |= {sub.attr for sub in ast.walk(node)
                      if isinstance(sub, ast.Attribute)}
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.add(node.name)
                names.discard(node.name)
            used |= names
    texts = [path.read_text(encoding="utf-8")
             for path in sorted((ROOT / "perfbench").glob("*"))
             if path.suffix in (".py", ".md")]
    texts.append((ROOT / "README.md").read_text(encoding="utf-8"))
    unused = sorted(
        name for name in defined - used
        if not any(re.search(rf"\b{name}\b", text) for text in texts))
    assert unused == []
