import hashlib
import tracemalloc

import pytest

from stag import to_dot, to_edgelist, to_json
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


# sha256 over each serialiser's bytes of every graph of a seeded sweep, each
# after a line naming its arguments. The bytes fix each generator's draws,
# edge order, endpoints and names, on which perfbench's seed tables rest.
_SWEEPS = {
    "connected": (_connected_sweep, {
        to_edgelist: "2db23cc7620dfca32b1238ddc71a582c0454f16d2b86471e41d7aebb188e5871",
        to_json: "17b7e8cb3b63faf3cb54741811349557d44cc668dca46ae74f3d8d1c673fe471",
        to_dot: "edc4f3fead2d4088925865204e2530c199f332ffaef68c86594cddfc91fe1a4e",
    }),
    "two-connected": (_two_connected_sweep, {
        to_edgelist: "e75a6c87fd0692c10bd94527b2d9b7ec4e5963d644faa8bcbf55b6d499272c76",
        to_json: "33893084214fd76f2b89529fb6be874866ba626148576fb5af61e753f2617ae4",
        to_dot: "b32ba47a502b0f007fe9ea8b1b8bb5402326558ebf7b10f47e8ae695f20a1882",
    }),
    "multiblock": (_multiblock_sweep, {
        to_edgelist: "ebc68d3eb74af6e18fe55b9e586f08d758b7a91dc38141395747d4fcafaeb9b4",
        to_json: "73670f361a8fc76a9a93f854874af5b6c8f3e8468c792328e21f75e533f201fb",
        to_dot: "a0c6c2af0e11029d418f7c88e4d4585c2cb95464616393e21dddbbfa4a3430ac",
    }),
}


@pytest.mark.parametrize("name", list(_SWEEPS))
def test_generator_output_is_pinned(name):
    sweep, digests = _SWEEPS[name]
    hashes = {write: hashlib.sha256() for write in digests}
    count = 0
    for make, args in sweep():
        g = make(*args)
        for write, h in hashes.items():
            h.update(f"# {args}\n{write(g)}".encode())
        count += 1
    assert count >= 100
    assert {write.__name__: h.hexdigest() for write, h in hashes.items()} == {
        write.__name__: digest for write, digest in digests.items()}


# Past n = 30 the lists of absent pairs run to 500,000 entries, so these pin
# the index decode of _chords at sizes the sweeps above do not reach: sha256
# over the edge lists of the graphs in the order given.
_LARGE_BLOCKS = [3 + 7 * i % 38 for i in range(120)]


@pytest.mark.parametrize("make, calls, digest", [
    (random_connected_graph,
     [(n, m, seed) for n, m in ((150, 450), (400, 1200), (1000, 2000)) for seed in range(3)],
     "8881e0febb63c16cb38f94b7fe87f698c1580f15e51663a986ce09b3adcc1aa7"),
    (random_multiblock_graph, [(_LARGE_BLOCKS, 1, extra) for extra in range(3)],
     "01627480183676b030b5302c9c926e2c5e221fb3fab24c9518037774d6f035b5"),
], ids=["connected", "multiblock"])
def test_large_draws_are_pinned(make, calls, digest):
    h = hashlib.sha256()
    for args in calls:
        h.update(to_edgelist(make(*args)).encode())
    assert h.hexdigest() == digest


def test_chords_take_one_int_per_absent_pair():
    # 124,000 absent pairs: 4.8 MiB as ints, 10.5 MiB as (u, v) tuples
    tracemalloc.start()
    try:
        random_connected_graph(500, 1000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7.5 * 2**20


@pytest.mark.parametrize("make, args, message", [
    (random_connected_graph, (0, 0, 1), "need at least one vertex"),
    (random_connected_graph, (4, 2, 1), "edge count out of range for a connected simple graph"),
    (random_two_connected_graph, (2, 1, 1), "2-connected graphs need at least three vertices"),
    (random_two_connected_graph, (4, 7, 1),
     "edge count out of range for a 2-connected simple graph"),
    (random_multiblock_graph, ([], 1), "need at least one block size"),
])
def test_generator_arguments_out_of_range(make, args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make(*args)
