"""The mutation runner (``tests/mutants.py``) finds stale old text only when
it runs, which takes minutes; this checks every entry with the test suite."""

import mutants


def test_every_mutants_old_text_occurs_exactly_once_in_its_file():
    stale = [m.name for m in mutants.MUTANTS if (mutants.ROOT / m.path).read_text().count(m.old) != 1]
    assert stale == []
