"""recognition.layout as it stood before the search kept its state per
frame instead of in an undo log, copied verbatim. Tests compare the
library's layout with this one, result for result, so any change in the
order moves are tried, or in what a failed branch leaves behind, shows."""

from itertools import count, islice


def layout(tree, paths):
    """Lay the tree nodes out as a tree on vertices 0..len(tree) in which
    the tree nodes paths[c] of every cycle c form a path. The cycles must
    connect all tree nodes, as they do in one component of a root.

    Tree nodes on exactly the same cycles form a series class, and every
    cycle holds a whole class or none of it: a layout of one node per
    class subdivides into a full one with the same path ends, and
    contracting a full one gives a reduced one. Complete search over the
    first node of each class: at each step the open cycle with the fewest
    legal moves is extended by one of its remaining nodes, attached as a
    new leaf at one end of its path. Then, in placement order, each node's
    (u, v) becomes the path u - w1 - ... - v through its class in tree
    order, w1, ... fresh vertices. Returns (place, ends), place[f] the
    vertex pair of tree node f and ends[c] the two ends of c's path, or
    None when no such tree exists."""
    labels = {f: [] for f in tree}
    for c in sorted(paths):
        for f in paths[c]:
            labels[f].append(c)
    classes = {}
    for f in tree:
        classes.setdefault(tuple(labels[f]), []).append(f)
    heads = {members[0]: members for members in classes.values()}
    remaining = {c: heads.keys() & p for c, p in paths.items()}
    place = {}
    ends = {}
    undo = []

    def attach(f, u):
        v = len(place) + 1
        place[f] = (u, v)
        old = [(c, ends.get(c)) for c in labels[f]]
        for c, a in old:
            ends[c] = (u, v) if a is None else (v, a[1]) if a[0] == u else (a[0], v)
            remaining[c].discard(f)
        undo.append((f, old))

    def detach():
        f, old = undo.pop()
        del place[f]
        for c, a in old:
            remaining[c].add(f)
            if a is None:
                del ends[c]
            else:
                ends[c] = a

    def moves():
        best = []
        for c in sorted(ends):
            if not remaining[c]:
                continue
            legal = [
                (f, u)
                for f in sorted(remaining[c])
                for u in ends[c]
                if all(d not in ends or u in ends[d] for d in labels[f])
            ]
            if not legal:
                return []
            if not best or len(legal) < len(best):
                best = legal
        return best

    attach(tree[0], 0)
    frames = []
    while len(place) < len(heads):
        frames.append(iter(moves()))
        while (move := next(frames[-1], None)) is None:
            frames.pop()
            if not frames:
                return None
            detach()
        attach(*move)
    full = {}
    fresh = count(len(heads) + 1)
    for f, (u, v) in place.items():
        chain = [u, *islice(fresh, len(heads[f]) - 1), v]
        full.update(zip(heads[f], zip(chain, chain[1:])))
    return full, ends
