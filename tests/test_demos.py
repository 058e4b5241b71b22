import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert [path.name for path in DEMOS] == [
        "power_sum_routes.py",
        "series_reversion.py",
        "triangle_gallery.py",
    ]


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_cleanly(capsys, path):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out
    assert "MISMATCH" not in out and "False" not in out
