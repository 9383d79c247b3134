"""The planted defects of ``mutants.py`` still name code that exists."""

from mutants import MUTANTS, REPO_ROOT


def test_each_mutant_edits_text_that_occurs_once_and_names_its_tests():
    """A refactor that moves a mutant's code must update the list with it."""
    assert len({mutant.name for mutant in MUTANTS}) == len(MUTANTS)
    for mutant in MUTANTS:
        assert mutant.file.startswith("src/"), mutant.name
        assert (REPO_ROOT / mutant.file).read_text().count(mutant.old) == 1, mutant.name
        assert mutant.old != mutant.new, mutant.name
        assert mutant.tests, mutant.name
        for test in mutant.tests:
            assert (REPO_ROOT / test.split("::")[0]).is_file(), (mutant.name, test)
