"""Every golden case keeps its digest: the same exit code, messages and
bytes from every `stag` command (tests/golden.py)."""

from collections import Counter

import golden

# the least number of cases per command the corpus holds
FLOOR = {"invert": 500, "factor": 60, "params": 209, "count": 209, "aux": 4, "trees": 4,
         "blocks": 4, "preimages": 4, "verify-roundtrip": 4, "random": 4}


def test_every_golden_case_keeps_its_digest(tmp_path):
    rows = golden.read_digests()
    assert [(argv, recipe) for argv, recipe, _ in rows] == golden.cases()
    changed = [f"{argv}\t{recipe}" for argv, recipe, digest in rows
               if golden.record(argv, recipe, tmp_path) != digest]
    assert changed == [], f"{len(changed)} of {len(rows)} cases changed, first: {changed[:5]}"
    per_command = Counter(argv.split()[0] for argv, _, _ in rows)
    assert all(per_command[c] >= k for c, k in FLOOR.items()), per_command
