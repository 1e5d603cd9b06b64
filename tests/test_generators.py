import hashlib

import pytest

from stag import to_edgelist
from stag.generators import (
    random_connected_graph,
    random_multiblock_graph,
    random_two_connected_graph,
)


def _connected_sweep():
    for n in (1, 2, 3, 4, 5, 6, 8, 11, 16, 30):
        top = n * (n - 1) // 2
        for m in sorted({n - 1, (n - 1 + top) // 2, max(n - 1, top - 1), top}):
            for seed in range(4):
                yield random_connected_graph, (n, m, seed)


def _two_connected_sweep():
    # m = n is a cycle with no ear; top - 1 and top are near-complete
    for n in (3, 4, 5, 6, 7, 9, 12, 17, 30):
        top = n * (n - 1) // 2
        for m in sorted({n, n + 1, n + 3, (n + top) // 2, top - 1, top}):
            if n <= m <= top:
                for seed in range(4):
                    yield random_two_connected_graph, (n, m, seed)


_BLOCK_SIZES = ([3], [4], [3, 3], [5, 4], [3, 6, 4], [7, 3, 5, 3], [4] * 6, [9, 8],
                [3, 10, 3], [6, 5, 4, 3, 8])


def _multiblock_sweep():
    for extra in range(4):
        for sizes in _BLOCK_SIZES:
            for seed in range(3):
                yield random_multiblock_graph, (sizes, seed, extra)


# sha256 over the to_edgelist bytes of every graph of a seeded sweep, each
# after a line naming its arguments. The bytes fix each generator's draws,
# edge order, endpoints and names, on which perfbench's seed tables rest.
_SWEEPS = {
    "connected": ("2db23cc7620dfca32b1238ddc71a582c0454f16d2b86471e41d7aebb188e5871",
                  _connected_sweep),
    "two-connected": ("e75a6c87fd0692c10bd94527b2d9b7ec4e5963d644faa8bcbf55b6d499272c76",
                      _two_connected_sweep),
    "multiblock": ("ebc68d3eb74af6e18fe55b9e586f08d758b7a91dc38141395747d4fcafaeb9b4",
                   _multiblock_sweep),
}


@pytest.mark.parametrize("name", list(_SWEEPS))
def test_generator_output_is_pinned(name):
    digest, sweep = _SWEEPS[name]
    h = hashlib.sha256()
    count = 0
    for make, args in sweep():
        h.update(f"# {args}\n{to_edgelist(make(*args))}".encode())
        count += 1
    assert count >= 100
    assert h.hexdigest() == digest
