"""The fenced ``python`` blocks of README.md run as written, in order, in one
namespace, so a change of the public API that the quickstart uses fails here."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    assert blocks, "README.md holds no python block"
    namespace = {"__name__": "readme"}
    for i, source in enumerate(blocks):
        exec(compile(source, "%s, python block %d" % (README.name, i), "exec"), namespace)
