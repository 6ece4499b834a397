import re
from pathlib import Path

from morphseg import synth

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_library_example_runs_as_written(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    (example,) = re.search(r"^## Library$.*?^```python\n(.*?)^```", text, re.M | re.S).groups()
    tokens, _, _ = synth.generate(3000, 1)
    lines = (" ".join(tokens[i : i + 12]) for i in range(0, len(tokens), 12))
    (tmp_path / "corpus.txt").write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    monkeypatch.chdir(tmp_path)  # the example reads corpus.txt
    exec(example, {})
    assert capsys.readouterr().out
