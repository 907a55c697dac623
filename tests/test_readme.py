"""The README's library example runs as written, so API drift in the docs fails here."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    section = README.read_text().split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {"__name__": "readme"})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert lines[1] == "None"  # no sudden death, as the example says
    assert lines[3].startswith("[8.242") and "22.656" in lines[3]
