"""Names that the benchmark tracer, the package exports and the README rely on."""

import ast
import importlib.util
import re
from pathlib import Path

import ordsemi

ROOT = Path(__file__).resolve().parents[1]


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for owner, attr, name, _ in spans.TRACED:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner!r}.{attr} is missing"


def test_all_exports_resolve():
    missing = [name for name in ordsemi.__all__ if not hasattr(ordsemi, name)]
    assert missing == []


def test_readme_quick_start_imports_run():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    imports = [
        node for node in ast.parse(code).body if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert imports
    exec(compile(ast.Module(body=imports, type_ignores=[]), "README.md", "exec"), {})
