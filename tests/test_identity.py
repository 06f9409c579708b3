"""Bit identity of every benchmark output.

Each output of ``bench/workloads.py``'s ``Evaluator`` at seeds 0 and 3 is
hashed as sha256 of ``repr(value._mpc_)``, every bit of the mpc, and
compared against ``tests/data/identity.json``: the per-output hashes and
the sha256 of all the reprs concatenated, workloads in ``WORKLOADS`` order
and seed 0 before seed 3 within each.  A change that moves a bit of any
output fails here and names the first output that moved.

When a change is meant to move bits, ``python tests/test_identity.py``
(with ``src`` on the path) prints how many outputs moved per workload and
seed, and then writes the data file anew.
"""
import hashlib
import json
from pathlib import Path

from test_expansion import _bench_workloads

DATA = Path(__file__).resolve().parent / "data" / "identity.json"
SEEDS = (0, 3)


def _outputs():
    """(key, repr of the mpc's bits) for every output, in digest order;
    the key is workload/seed/point/output."""
    import zetastokes
    wl = _bench_workloads()
    for name in wl.WORKLOADS:
        ev = wl.Evaluator(zetastokes, name)
        for seed in SEEDS:
            for j, point in enumerate(wl.points(name, seed)):
                for i, value in enumerate(ev.evaluate(point)):
                    yield f"{name}/{seed}/{j}/{i}", repr(value._mpc_)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _digests() -> dict:
    outputs = list(_outputs())
    return {"seeds": list(SEEDS),
            "combined": _sha("".join(bits for _, bits in outputs)),
            "outputs": {key: _sha(bits) for key, bits in outputs}}


def test_benchmark_outputs_keep_every_bit():
    want = json.loads(DATA.read_text())
    got = _digests()
    for key, digest in want["outputs"].items():
        assert got["outputs"].get(key) == digest, \
            f"first output that moved: {key} (workload/seed/point/output)"
    assert list(got["outputs"]) == list(want["outputs"])
    assert got["combined"] == want["combined"]


def _moved(old: dict, new: dict) -> dict:
    """{workload/seed: (outputs moved, outputs)} between two digests."""
    counts = {}
    for key, digest in new["outputs"].items():
        group = key.rsplit("/", 2)[0]
        moved, total = counts.get(group, (0, 0))
        counts[group] = (moved + (old["outputs"].get(key) != digest),
                         total + 1)
    return counts


if __name__ == "__main__":
    new = _digests()
    if DATA.exists():
        old = json.loads(DATA.read_text())
        for group, (moved, total) in _moved(old, new).items():
            print(f"{group}: {moved} of {total} outputs moved")
    DATA.write_text(json.dumps(new, indent=1) + "\n")
    print(f"wrote {DATA}")
