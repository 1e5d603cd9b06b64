import random
from functools import lru_cache
from math import isqrt

import networkx as nx
import pytest

import stag.factorization
from stag import (
    Graph,
    TooLarge,
    ValidationFailed,
    are_isomorphic,
    build_stag,
    cartesian_product,
    complete_graph,
    cycle_graph,
    is_prime,
    path_graph,
    prime_factorize,
    single_vertex_graph,
)
from stag.errors import Disconnected
from stag.factorization import _canon_key, _colourings, _square_classes, _try_extract
from stag.generators import (
    random_connected_graph,
    random_multiblock_graph,
    random_two_connected_graph,
)
from oracles import same_labeled
from test_layout import _deadline
from paper_lemmas import product_of_block_stags


def _product(graphs):
    out = graphs[0]
    for g in graphs[1:]:
        out = cartesian_product(out, g)
    return out


def _mobius_ladder(n=8):
    """The cycle C_n plus the chords i -- i + n/2."""
    return Graph.from_pairs([(i, (i + 1) % n) for i in range(n)] + [(i, i + n // 2) for i in range(n // 2)])


def _cube(k):
    return _product([complete_graph(2)] * k)


def _twisted(big_n, k, mask=None):
    """C_N box Q_k with the closing cycle edge joining x to x XOR mask
    (default 2^k - 1, every coordinate flipped). With the default mask the
    graph is prime, and it has k + 1 square classes unless it is
    twisted(3, 1) = K_{3,3}."""
    q = 1 << k
    mask = q - 1 if mask is None else mask
    pairs = []
    for i in range(big_n):
        for x in range(q):
            pairs += [(i * q + x, i * q + (x ^ b)) for b in (1 << j for j in range(k)) if x < x ^ b]
            pairs.append((i * q + x, (i + 1) * q + x if i + 1 < big_n else x ^ mask))
    return Graph.from_pairs(pairs, vertices=range(big_n * q))


def _relabelled(g, rng):
    """g under a random injection into 0..3n-1: sparse ids, another first vertex."""
    perm = rng.sample(range(3 * g.n), g.n)
    return Graph.from_pairs([(perm[e.u], perm[e.v]) for e in g.edges])


@pytest.fixture
def m8():
    return _mobius_ladder()


@pytest.fixture
def twisted():
    return _twisted


def test_prime_small_graphs(c5, k4, p4):
    assert is_prime(c5)
    assert is_prime(k4)
    assert is_prime(p4)
    assert is_prime(complete_graph(2))


def test_k1_prime_by_convention():
    assert is_prime(single_vertex_graph())


def test_c4_factors_into_two_k2():
    fz = prime_factorize(cycle_graph(4))
    assert len(fz.factors) == 2
    assert all(f.n == 2 and f.m == 1 for f in fz.factors)
    assert not fz.is_prime


def test_coordinates_describe_the_product():
    g = _product([complete_graph(3), path_graph(2)])
    fz = prime_factorize(g)
    assert sorted(f.n for f in fz.factors) == [2, 3]
    # each edge changes exactly one coordinate, along an edge of that factor
    order = fz.factors
    for e in g.edges:
        cu, cv = fz.coordinates[e.u], fz.coordinates[e.v]
        diff = [i for i in range(len(cu)) if cu[i] != cv[i]]
        assert len(diff) == 1
        (i,) = diff
        assert order[i].has_edge(cu[i], cv[i])


def test_factorization_roundtrip_random():
    rng = random.Random(13)
    primes = [complete_graph(2), complete_graph(3), path_graph(3), cycle_graph(5)]
    for _ in range(12):
        parts = rng.sample(primes, rng.randint(1, 3))
        g = _product(parts)
        if g.n > 200:
            continue
        fz = prime_factorize(g)
        assert len(fz.factors) == len(parts)
        rebuilt = _product(list(fz.factors))
        assert are_isomorphic(g, rebuilt)[0]


def test_three_way_product():
    k2 = complete_graph(2)
    g = _product([k2, k2, k2])  # the cube
    fz = prime_factorize(g)
    assert len(fz.factors) == 3
    assert all(f.n == 2 for f in fz.factors)


def test_factor_guard():
    with pytest.raises(TooLarge):
        prime_factorize(cycle_graph(5), max_n=4)


def test_a_star_of_4000_leaves_is_prime_in_2_s():
    # the hub's first pairs leave one square class, and the scan stops there
    # instead of at the last of its C(4000, 2) pairs
    star = Graph(range(4001), [(i, 0, i + 1) for i in range(4000)])
    with _deadline(2):
        fz = prime_factorize(star)
    assert len(fz.factors) == 1 and fz.factors[0].m == 4000


def test_aux_of_two_connected_is_prime():
    rng = random.Random(29)
    for _ in range(10):
        n = rng.randint(3, 5)
        m = rng.randint(n, min(8, n * (n - 1) // 2))
        g = random_two_connected_graph(n, m, rng.randrange(1 << 30))
        assert is_prime(build_stag(g).graph)


def test_block_product_theorem_fixtures(bowtie, triangle_pendant, p4):
    for g in (bowtie, triangle_pendant, p4):
        whole = build_stag(g).graph
        prod = product_of_block_stags(g).graph
        assert are_isomorphic(whole, prod)[0]


def test_block_product_theorem_random():
    rng = random.Random(31)
    for _ in range(10):
        sizes = [rng.randint(3, 4) for _ in range(rng.randint(2, 3))]
        g = random_multiblock_graph(sizes, rng.randrange(1 << 30))
        whole = build_stag(g).graph
        prod = product_of_block_stags(g).graph
        assert are_isomorphic(whole, prod)[0]


def test_pendant_edge_does_not_change_stag(k4, triangle_pendant, c3):
    # K2 blocks contribute the K1 identity factor
    s_c3 = build_stag(c3).graph
    s_pendant = build_stag(triangle_pendant).graph
    assert are_isomorphic(s_c3, s_pendant)[0]


def test_is_prime_keeps_the_guard():
    with pytest.raises(TooLarge):
        is_prime(cycle_graph(5), max_n=4)


def test_mobius_ladder_is_prime_with_two_square_classes(m8, twisted):
    assert len(_square_classes(m8)) == 2
    assert is_prime(m8)
    for big_n, k in ((4, 1), (3, 2), (4, 3), (5, 4)):
        g = twisted(big_n, k)
        assert len(_square_classes(g)) == k + 1
        assert is_prime(g)


def test_mobius_ladder_times_q7_has_eight_factors(m8):
    g = cartesian_product(m8, _cube(7))
    fz = prime_factorize(g)
    assert [f.n for f in fz.factors] == [8] + [2] * 7
    assert all(f.m == 1 for f in fz.factors[1:])
    assert are_isomorphic(fz.factors[0], m8)[0]
    assert not is_prime(g)


def test_theta_closure_stops_once_the_groups_extract(m8, monkeypatch):
    # M8 x Q3: the first merge (rungs with rims) already gives the factors;
    # scanning the whole BFS tree takes a distance map per vertex or more
    calls = []
    distances = stag.factorization._distances
    monkeypatch.setattr(stag.factorization, "_distances", lambda g, s: calls.append(s) or distances(g, s))
    g = cartesian_product(m8, _cube(3))
    assert [f.n for f in prime_factorize(g).factors] == [8, 2, 2, 2]
    assert len(calls) < g.n // 4


def test_failed_extraction_is_no_prime_verdict(m8, monkeypatch):
    # with the Theta step disabled, the two square classes of M8 stay apart
    monkeypatch.setattr(
        stag.factorization,
        "_colourings",
        lambda g, classes: iter([{eid: i for i, c in enumerate(classes) for eid in c}]),
    )
    with pytest.raises(ValidationFailed, match="factors span 16 vertices"):
        prime_factorize(m8)


@pytest.mark.parametrize(
    "pairs, colours, message",
    [
        ("0-1 0-2 1-2", "001", "a layer of the other factors meets factor 0 twice"),
        ("0-1 0-3 1-2", "011", "a layer of the other factors misses factor 1"),
        ("0-4 0-5 1-2 1-4 2-4 3-4", "010120", "two vertices get the same coordinates"),
        ("0-1 0-4 0-5 1-2 2-3 3-4 3-5", "0011010", "edge 4 is not a step along factor 0"),
        # the triangular prism less its edge 4-5
        ("0-1 1-2 0-2 0-3 1-4 2-5 3-4 3-5", "00011100", "the product has 9 edges, the graph 8"),
    ],
    ids=["meets-twice", "misses", "same-coordinates", "not-a-step", "edge-count"],
)
def test_extraction_names_the_check_that_fails(pairs, colours, message):
    g = Graph.from_pairs([tuple(map(int, p.split("-"))) for p in pairs.split()])
    with pytest.raises(ValidationFailed, match=f"^{message}$"):
        _try_extract(g, {e.eid: int(c) for e, c in zip(g.edges, colours)})


def test_the_colourings_start_at_the_square_classes_and_coarsen():
    merges = 0
    for g in _reference_corpus():
        classes = _square_classes(g)
        chain = list(_colourings(g, classes))
        assert chain[0] == {eid: i for i, c in enumerate(classes) for eid in c}
        for finer, coarser in zip(chain, chain[1:]):
            merge = {(finer[eid], coarser[eid]) for eid in finer}
            assert len(merge) == len(set(finer.values())) > len(set(coarser.values()))
        merges += len(chain) - 1
    assert merges >= 20


# -- the exhaustive search the factorization used to run, as the reference ----


def _set_partitions(items):
    """All set partitions of items, as lists of lists."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def _reference_factorize(g):
    """(factors, coordinates) of the first coarsening of the square classes,
    finest first, that extracts."""
    classes = _square_classes(g)
    assert len(classes) <= 8
    for part in sorted(_set_partitions(list(range(len(classes)))), key=lambda p: -len(p)):
        color = {eid: b for b, group in enumerate(part) for ci in group for eid in classes[ci]}
        try:
            factors, coords = _try_extract(g, color)
        except ValidationFailed:
            continue
        order = sorted(range(len(factors)), key=lambda i: (-factors[i].n, _canon_key(factors[i])))
        return [factors[i] for i in order], {v: tuple(c[i] for i in order) for v, c in coords.items()}
    raise AssertionError("the trivial colouring always extracts")


def _reference_corpus():
    rng = random.Random(47)
    m8 = _mobius_ladder()
    corpus = [cartesian_product(m8, _cube(k)) for k in range(1, 7)]
    corpus += [_twisted(3, 6), _twisted(4, 5), _twisted(5, 3), cartesian_product(m8, m8)]
    for _ in range(30):
        k = rng.randint(1, 4)
        corpus.append(_twisted(rng.randint(3, 5), k, rng.randrange(1 << k)))
    for _ in range(20):
        parts, count = [m8] if rng.random() < 0.3 else [], rng.randint(2, 3)
        while len(parts) < count:
            n = rng.randint(2, 5)
            parts.append(random_connected_graph(n, rng.randint(n - 1, n * (n - 1) // 2), rng.randrange(1 << 30)))
        corpus.append(_product(parts))
    return [_relabelled(g, rng) if rng.random() < 0.5 else g for g in corpus]


def test_same_output_as_the_exhaustive_search():
    reached_theta = 0
    for g in _reference_corpus():
        factors, coords = _reference_factorize(g)
        fz = prime_factorize(g)
        assert len(fz.factors) == len(factors)
        assert all(same_labeled(a, b) for a, b in zip(fz.factors, factors))
        assert fz.coordinates == coords
        reached_theta += len(factors) < len(_square_classes(g))
    assert reached_theta >= 20


# -- a networkx product oracle --------------------------------------------------


@lru_cache(maxsize=None)
def _connected_atlas():
    """Connected atlas graphs (all graphs on at most 7 vertices) by order."""
    out = {}
    for h in nx.graph_atlas_g()[1:]:
        if nx.is_connected(h):
            out.setdefault(h.number_of_nodes(), []).append(h)
    return out


def _nx_prime_sizes(h):
    """Sorted vertex counts of the prime factors of a connected networkx
    graph: h is composite iff some connected atlas graphs H1, H2 with
    n1 * n2 = n have a Cartesian product isomorphic to h."""
    atlas = _connected_atlas()
    n, m = h.number_of_nodes(), h.number_of_edges()
    degrees = sorted(d for _, d in h.degree())
    for n1 in range(2, isqrt(n) + 1):
        if n % n1:
            continue
        assert n // n1 in atlas, "the oracle is exact only for factors within the atlas"
        for h1 in atlas[n1]:
            for h2 in atlas[n // n1]:
                if (
                    n1 * h2.number_of_edges() + h1.number_of_edges() * (n // n1) == m
                    and sorted(a + b for _, a in h1.degree() for _, b in h2.degree()) == degrees
                    and nx.is_isomorphic(nx.cartesian_product(h1, h2), h)
                ):
                    return sorted(_nx_prime_sizes(h1) + _nx_prime_sizes(h2))
    return [n]


def _from_nx(h):
    return Graph.from_pairs(list(h.edges()), vertices=list(h.nodes()))


def _oracle_corpus():
    """Every connected atlas graph on 4 or 6 vertices, seeded products of
    two connected atlas graphs whose order has no divisor above 7, and the
    same products with one edge added or removed."""
    atlas = _connected_atlas()
    corpus = atlas[4] + atlas[6]
    rng = random.Random(53)
    sizes = [(2, 2), (2, 3), (2, 4), (3, 3), (2, 5), (2, 6), (3, 4), (2, 7), (3, 5), (3, 7), (5, 5), (5, 7)]
    for i in range(160):
        n1, n2 = sizes[i % len(sizes)]
        h = nx.convert_node_labels_to_integers(
            nx.cartesian_product(rng.choice(atlas[n1]), rng.choice(atlas[n2]))
        )
        if i >= 120:
            u, v = rng.sample(range(h.number_of_nodes()), 2)
            if h.has_edge(u, v):
                h.remove_edge(u, v)
            else:
                h.add_edge(u, v)
            if not nx.is_connected(h):
                continue
        corpus.append(h)
    return corpus


def test_agrees_with_the_networkx_product_oracle():
    corpus = _oracle_corpus()
    assert len(corpus) >= 118 + 100
    perturbed_primes = 0
    for h in corpus:
        g = _from_nx(h)
        sizes = _nx_prime_sizes(h)
        fz = prime_factorize(g)
        assert sorted(f.n for f in fz.factors) == sizes, sorted(h.edges())
        assert is_prime(g) == (len(sizes) == 1)
        perturbed_primes += len(sizes) == 1 and h.number_of_nodes() > 7
    assert perturbed_primes >= 10


def test_factorization_and_block_product_need_a_connected_graph():
    g = Graph(range(4), [(0, 0, 1), (1, 2, 3)])
    with pytest.raises(Disconnected, match="^factorization needs a connected graph$"):
        prime_factorize(g)
    with pytest.raises(Disconnected, match="^block product needs a connected graph$"):
        product_of_block_stags(g)


def test_block_product_of_k1_is_one_unannotated_vertex():
    s = product_of_block_stags(single_vertex_graph())
    assert (s.annotated, s.graph.n, s.graph.m) == (False, 1, 0)
