"""The README's "Library use" block runs as documented."""

import re
from pathlib import Path

import numpy as np

from bcwave import Control

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_use_block() -> str:
    section = README.read_text().split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_block_runs():
    scope = {}
    exec(compile(_library_use_block(), str(README), "exec"), scope)
    x, q_rec = scope["x"], scope["q_rec"]
    truth = scope["q"](x)
    band = np.abs(x) <= 0.8
    assert np.max(np.abs(q_rec[band] - truth[band])) < 0.05 * np.max(truth)
    assert np.array_equal(scope["profile"].x, x)
    f, g = scope["f"], scope["g"]
    assert isinstance(g, Control) and g.grid == f.grid
