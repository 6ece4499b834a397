import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs in an isolated interpreter: what site start-up loaded (.pth hooks and
# the like) is recorded first, so only what importing morphseg adds counts.
_PROBE = """
import importlib, json, sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
for name in json.loads(sys.argv[2]):
    importlib.import_module(name)
print(json.dumps(sorted({m.split(".")[0] for m in set(sys.modules) - before})))
"""


def test_importing_every_module_loads_only_the_standard_library():
    modules = ["morphseg"] + ["morphseg." + p.stem for p in sorted((SRC / "morphseg").glob("*.py"))
                              if p.stem != "__init__"]
    result = subprocess.run(
        [sys.executable, "-I", "-c", _PROBE, str(SRC), json.dumps(modules)],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    loaded = json.loads(result.stdout)
    assert "morphseg" in loaded
    assert [m for m in loaded if m != "morphseg" and m not in sys.stdlib_module_names] == []
