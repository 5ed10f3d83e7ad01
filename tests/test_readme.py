"""README's code runs as written."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_block_runs(capsys):
    section = README.read_text().split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block, "README's Library use section has no python block"
    namespace = {}
    exec(compile(block.group(1), f"{README}:Library use", "exec"), namespace)
    # the printed shapes and the median gap the block's comments promise
    assert capsys.readouterr().out.splitlines()[:3] == ["(1,)", "(1, 2)", "(2,)"]
    assert namespace["posterior_cloud"].shape == (1000, 2)
    assert 1e-6 < np.median(namespace["gap"]) < 4e-6
