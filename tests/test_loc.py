"""``scripts/loc.py`` on a synthetic package and on the library."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "loc.py"


def _run(*args):
    done = subprocess.run([sys.executable, str(SCRIPT), *args],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return {name: int(count) for count, name in
            (line.split() for line in done.stdout.splitlines())}


def test_loc_skips_blank_and_comment_lines_only(tmp_path):
    (tmp_path / "a.py").write_text(
        '"""Doc\n\nstring."""\n\n# comment\n   # indented comment\n'
        'x = 1  # trailing comment\n\t\n    y = "#"\n')
    (tmp_path / "b.py").write_text("")
    (tmp_path / "notes.txt").write_text("not python\n")
    assert _run(str(tmp_path)) == {"a.py": 4, "b.py": 0, "total": 4}


def test_loc_total_is_the_grep_count_over_the_library():
    """The total is what ``grep -vE '^\\s*(#|$)' src/minorforge/*.py | wc -l``
    counts, recounted here with the same pattern."""
    counts = _run()
    total = counts.pop("total")
    modules = sorted((ROOT / "src" / "minorforge").glob("*.py"))
    assert sorted(counts) == [p.name for p in modules]
    skipped = re.compile(r"\s*(#|$)")
    grep = {p.name: sum(1 for line in p.read_text().splitlines() if not skipped.match(line))
            for p in modules}
    assert counts == grep
    assert total == sum(grep.values())
