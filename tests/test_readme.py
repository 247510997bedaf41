"""README's "Library use" example runs as written, so it cannot drift from
the module layout."""

import json
import re
import shutil

from conftest import REPO_ROOT, SCENARIO_DIR


def test_the_library_example_runs_as_written(tmp_path, monkeypatch, capsys):
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1]
    example = re.search(r"^```python\n(.*?)^```$", section, re.S | re.M).group(1)
    (tmp_path / "scenarios").mkdir()
    shutil.copy(SCENARIO_DIR / "staticsite.json", tmp_path / "scenarios")
    monkeypatch.chdir(tmp_path)
    exec(compile(example, "README.md", "exec"), {})
    session = json.loads((tmp_path / "session.json").read_text())
    assert session["final_policy"]["allow"]
    assert capsys.readouterr().out.endswith(f" {session['consultations']}\n")
