import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs_and_matches_the_oracle(capsys):
    # the README's library example is the public API as users first meet it
    section = README.read_text().split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out
    worst = re.fullmatch(r"max infidelity over the window: (\S+)\n", printed).group(1)
    assert float(worst) < 1e-6
