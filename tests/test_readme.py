"""The README's library quick tour runs and prints what its comments say."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_tour() -> str:
    [block] = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    return block


def test_quick_tour_prints_what_its_comments_say(capsys):
    block = _quick_tour()
    exec(compile(block, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    # each print line's comment gives the line it prints
    promised = [line.split("#", 1)[1].strip()
                for line in block.splitlines() if line.startswith("print(")]
    assert printed == promised
    value, matched = printed
    assert len(value.replace(".", "")) == 50
    assert matched == "35"
