import ast
import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs in an isolated interpreter (-B: -I ignores PYTHONDONTWRITEBYTECODE, and
# .pyc files left in src/ would change later start-up timings): what site
# start-up loaded (.pth hooks and the like) is recorded first, so only what
# importing morphseg adds counts.
_PROBE = """
import importlib, json, sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
for name in json.loads(sys.argv[2]):
    importlib.import_module(name)
print(json.dumps(sorted({m.split(".")[0] for m in set(sys.modules) - before})))
"""


def _loaded_by_importing(modules):
    """Top-level names of the modules that importing modules loads beyond start-up."""
    result = subprocess.run(
        [sys.executable, "-I", "-B", "-c", _PROBE, str(SRC), json.dumps(modules)],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_importing_every_module_loads_only_the_standard_library():
    modules = ["morphseg"] + ["morphseg." + p.stem for p in sorted((SRC / "morphseg").glob("*.py"))
                              if p.stem != "__init__"]
    loaded = _loaded_by_importing(modules)
    assert "morphseg" in loaded
    assert [m for m in loaded if m != "morphseg" and m not in sys.stdlib_module_names] == []


def test_the_command_line_loads_no_dataclass_machinery():
    # dataclasses pulls in inspect, ast and dis: start-up every command pays
    assert {"dataclasses", "inspect"} & set(_loaded_by_importing(["morphseg.cli"])) == set()


def test_every_name_a_module_imports_is_used_in_it():
    unused = []
    for path in sorted((SRC / "morphseg").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]  # import a.b binds a
                    if name not in used:
                        unused.append("%s line %d: %s" % (path.name, node.lineno, name))
    assert unused == []


def test_every_error_type_is_caught_by_name_somewhere():
    # a subclass of MorphsegError that no except clause names is told apart
    # from it by nothing: the command line maps every one to exit code 3
    tree = ast.parse((SRC / "morphseg" / "errors.py").read_text(encoding="utf-8"))
    defined = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    caught = set()
    for path in sorted((SRC / "morphseg").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught.update(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node.type)
                              if isinstance(n, (ast.Name, ast.Attribute)))
    assert sorted(defined - caught) == []
