"""No module under ``src/`` grows past 1,000 lines.

``storage/memory.py`` once reached 2,916 lines by stating the same few
facts several times over; it was deduplicated and cut along its seams
(DESIGN.md section 3 has the module map).  This keeps the cut from
quietly growing back: a module that hits the limit is holding more than
one concern, or one concern more than once — split or deduplicate it,
do not raise the number.
"""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
MAX_MODULE_LINES = 1000


def test_no_source_module_exceeds_the_line_limit():
    lengths = {
        str(path.relative_to(SRC)): len(path.read_text().splitlines())
        for path in SRC.rglob("*.py")
    }
    assert lengths, f"no modules found under {SRC}"
    too_long = {name: n for name, n in lengths.items()
                if n > MAX_MODULE_LINES}
    assert not too_long, (
        f"modules over {MAX_MODULE_LINES} lines: {too_long}")
