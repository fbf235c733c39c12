"""The package surface: ``import mopx`` gives README's example its names, and
every other name is imported from its module."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _python(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env).stdout


def test_import_mopx_exposes_only_the_readme_names_and_loads_no_harness():
    out = _python(
        "import sys, mopx\n"
        "print(sorted(n for n in vars(mopx) if not n.startswith('_') and not isinstance(getattr(mopx, n), type(sys))))\n"
        "print(sorted(m for m in ('harness', 'metrics', 'features', 'cli') if 'mopx.' + m in sys.modules))\n"
    )
    assert out.splitlines() == ["['GaussianEnvironment', 'Instance', 'RunConfig', 'run_gensec']", "[]"]
    assert _python("import mopx; print(mopx.__version__)") == "0.1.0\n"


def test_readme_python_example_runs_as_written():
    (example,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"), re.S)
    assert _python(example) == "0 29\n"


def test_no_module_imports_a_name_it_never_reads():
    """Each name a module-level import binds in a module of ``src/mopx`` is read
    as a plain name somewhere in that module; ``__init__.py`` re-exports by design."""
    unread = []
    for path in sorted((ROOT / "src" / "mopx").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    if (bound := alias.asname or alias.name.split(".")[0]) not in read:
                        unread.append(f"{path.name}: {bound}")
    assert unread == []
