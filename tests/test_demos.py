"""Every demo prints exactly what it printed when DEMO_STDOUT was recorded."""

import contextlib
import io
import json
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
DEMO_STDOUT = Path(__file__).parent / "data" / "demo_stdout.json"


def demo_stdout(path: Path) -> str:
    """What the demo prints to stdout, run in this process as a script."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    return out.getvalue()


def test_every_demo_is_recorded():
    expected = json.loads(DEMO_STDOUT.read_text(encoding="utf-8"))
    assert sorted(expected) == [path.name for path in DEMOS]


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_prints_its_recorded_output(path):
    """Regenerate DEMO_STDOUT (`PYTHONPATH=src python3 tests/test_demos.py`)
    only for a change meant to move a demo's output, and say which and why."""
    expected = json.loads(DEMO_STDOUT.read_text(encoding="utf-8"))
    assert demo_stdout(path) == expected[path.name]


if __name__ == "__main__":
    recorded = {path.name: demo_stdout(path) for path in DEMOS}
    DEMO_STDOUT.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(recorded)} demos to {DEMO_STDOUT}")
