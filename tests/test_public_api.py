"""The package's public names and the README's library examples."""

import re
from pathlib import Path

import survfrac
from survfrac import dataset, fracmean, inference, km, sim

README = Path(__file__).resolve().parent.parent / "README.md"


def test_public_names_are_the_modules_own():
    modules = (dataset, fracmean, inference, km, sim)
    declared = {"__version__"}.union(*(m.__all__ for m in modules))
    assert set(survfrac.__all__) == declared
    assert len(survfrac.__all__) == len(declared)
    for module in modules:
        for name in module.__all__:
            assert getattr(survfrac, name) is getattr(module, name)


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        flags=re.DOTALL | re.MULTILINE)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
