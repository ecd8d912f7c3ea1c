import random

import pytest

from combinekit import formulas
from combinekit.catalog import SizeCapTheory, default_catalog
from combinekit.sets import evens, upfrom


@pytest.fixture(autouse=True)
def empty_part_table():
    """Each test starts with an empty part table, so a test that counts
    memo misses never sees an emptying that an earlier test set up."""
    formulas.empty_parts()


@pytest.fixture(scope="session")
def theory_list():
    return default_catalog()


@pytest.fixture(scope="session")
def catalog(theory_list):
    by_name = {t.name: t for t in theory_list}
    for t in theory_list:
        if isinstance(t, SizeCapTheory):
            if t.s == evens():
                by_name["T_leq_S_evens"] = t
            elif t.s == upfrom(1):
                by_name["T_leq_S_all"] = t
    return by_name


@pytest.fixture()
def rng():
    return random.Random(20260810)
