"""The code-line count that size claims about ``src/`` are made in."""

from code_lines import code_lines, main

from conftest import REPO_ROOT

# the code lines of src/partsim when this ceiling was last moved
CEILING = 1778

FIXTURE = '''"""Module docstring,
over two lines."""

import os  # a comment on a code line

# a comment line


class A:
    """Class docstring."""

    x = """a string that is
not a docstring"""

    def f(self):
        """Function docstring."""
        return (1,
                2)


async def g():
    """Async function docstring."""
    pass
    "a later string statement is code"
'''


def test_blank_comment_and_docstring_lines_do_not_count():
    # import, class, the two lines of x, def f, return's two lines,
    # async def, pass and the later string
    assert code_lines(FIXTURE) == 10
    assert code_lines("") == 0
    assert code_lines('"""Only a docstring."""\n# and a comment\n') == 0


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text(FIXTURE)
    (tmp_path / "pkg" / "a.py").write_text("x = 1\n\ny = 2\n")
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
    assert main([str(tmp_path / "pkg")]) == 0
    assert capsys.readouterr().out == (
        f"    2 {tmp_path / 'pkg' / 'a.py'}\n"
        f"   10 {tmp_path / 'pkg' / 'b.py'}\n"
        "   12 total\n"
    )


def test_src_stays_within_its_ceiling():
    """``src/partsim`` has at most ``CEILING`` code lines.  A change that
    lowers the count lowers ``CEILING`` to match; a change that raises
    ``CEILING`` names why in CHANGES.md."""
    total = sum(code_lines(path.read_text(encoding="utf-8"))
                for path in (REPO_ROOT / "src" / "partsim").rglob("*.py"))
    assert total <= CEILING
