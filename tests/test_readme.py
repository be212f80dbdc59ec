"""README's `>>>` examples, run as doctests: one per fenced python block."""

import doctest
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples():
    text = README.read_text()
    # the block body stops before its closing fence, which doctest would read as output
    blocks = list(re.finditer(r"^```python\n(.*?)^```$", text, re.M | re.S))
    assert blocks
    parser, runner = doctest.DocTestParser(), doctest.DocTestRunner()
    report: list[str] = []
    for block in blocks:
        lineno = text.count("\n", 0, block.start(1))
        test = parser.get_doctest(block.group(1), {}, README.name, str(README), lineno)
        runner.run(test, out=report.append)
    assert runner.tries > 0
    assert runner.failures == 0, "".join(report)
