"""The README's library example runs against the current API."""
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs_and_prints_what_it_says():
    namespace: dict = {}
    exec(compile(_library_block(), str(README), "exec"), namespace)
    assert namespace["rep"].value == pytest.approx(13.0, abs=1e-12)
    assert namespace["rep"].bound == pytest.approx(12.5, abs=1e-12)
    bound = namespace["cross_potential_bound"](namespace["gram"])
    assert bound.value == pytest.approx(2.0, abs=1e-12)
    assert namespace["result"].mu_min == pytest.approx(1 / 3, abs=1e-6)
