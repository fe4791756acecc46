import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(scope="session")
def oracle_numbers():
    """B_n and E_n to 420 from the independent oracles (Akiyama-Tanigawa and
    the sech long division), built once: the small table ends at 82, so both
    sides of the boundary are covered."""
    from oracles import bernoulli_akiyama_tanigawa, euler_from_generating_function

    return bernoulli_akiyama_tanigawa(420), euler_from_generating_function(420)
