import pytest

from blockmonoid import abelian_groups_of_order, delta_star


@pytest.fixture(scope="session")
def sweep_cache():
    """Sweep reports, with the record of every computed subset, computed once
    per group and shared across tests."""
    cache = {}

    def get(group):
        key = group.orders
        if key not in cache:
            cache[key] = delta_star(group, sweep_max_group=None, records=True)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def groups_up_to_16():
    out = []
    for order in range(1, 17):
        out.extend(abelian_groups_of_order(order))
    return out
