"""The README's library quickstart runs as written."""

from __future__ import annotations

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quickstart_block_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["grid"].depth == 10
    assert math.isfinite(namespace["trace"].c0) and namespace["trace"].c0 > 0.0
