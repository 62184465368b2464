"""Work counts: exact numbers a fixed job makes, one row per counter.

Wall time on a shared host is noisy; these counts are not.  A row is (job,
counter, count).  A change that adds or removes work changes a row, and
the change says so.  Every job runs over generator names no other test
uses, so each term it builds is new to the intern tables.
"""

from fractions import Fraction

import pytest

from shirshov import AlgebraConfig, Alphabet, DrblSystem
from shirshov import words


class CountingRef(words._Ref):
    """An intern-table entry that counts the entries made."""

    __slots__ = ()
    made = 0

    def __init__(self, obj, callback):
        CountingRef.made += 1
        super().__init__(obj, callback)


def s1_deg7():
    """``system(7, s1_only=True)`` over two fresh generators at λ = 1:
    the objects filed in the intern tables while it is built, and the
    entries it leaves in each key memo."""
    CountingRef.made = 0
    alphabet = Alphabet(("work1", "work2"), (("P", 1),))
    config = AlgebraConfig(alphabet, Fraction(1))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(words, "_Ref", CountingRef)
        engine = DrblSystem(config).system(7, s1_only=True)
    assert (len(engine.rules), len(engine.lifted)) == (394, 520)
    return {
        "filed": CountingRef.made,
        "word keys": len(alphabet._word_keys),
        "prime keys": len(alphabet._prime_keys),
    }


JOBS = {"s1-deg7": s1_deg7}

ROWS = [
    ("s1-deg7", "filed", 1873),
    ("s1-deg7", "word keys", 394),
    ("s1-deg7", "prime keys", 142),
]


@pytest.fixture(scope="module")
def counts():
    return {name: job() for name, job in JOBS.items()}


@pytest.mark.parametrize(
    "job, counter, want", ROWS, ids=["%s:%s" % row[:2] for row in ROWS]
)
def test_work_count(counts, job, counter, want):
    assert counts[job][counter] == want
