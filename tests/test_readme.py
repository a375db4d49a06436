import contextlib
import io
import textwrap
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_block() -> str:
    """The indented code block of the README's "Library" section."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    lines = []
    for line in section.splitlines():
        if line.startswith("    ") or (lines and not line.strip()):
            lines.append(line)
        elif lines:
            break
    return textwrap.dedent("\n".join(lines))


def test_readme_library_example_runs():
    code = _library_block()
    assert "sample_branch" in code and "fingerprint" in code
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().startswith("Fingerprint(dim=3,")
