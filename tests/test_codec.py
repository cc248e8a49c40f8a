"""The koszulab-1 file format.  The canonical JSON of every reference dataset
is pinned by the first 16 hex digits of its SHA-256, the digest the dataset
fingerprint is taken from: the built-in height-1 dataset for each of the
nine (p, N), synthetic datasets of several seeds, Sym^2 and the dual-number
dataset.  To print the digests afresh after an intended change of format:

    PYTHONPATH=src python tests/test_codec.py
"""
import hashlib
import json

import pytest

from koszulab.algebra import (builtin_height1, canonical_json, dataset_from_json,
                              dataset_to_json)
from koszulab.synthetic import synthetic_height1_dataset

from test_assemble import dual_number_dataset
from test_golden import sym2_dataset

DATASETS = {
    **{f"builtin_p{p}_N{N}_k4": (lambda p=p, N=N: builtin_height1(p, N, 4))
       for p in (2, 3, 5) for N in (1, 2, 3)},
    **{f"synthetic_p{p}_N{N}_s{s}_k{k}":
       (lambda p=p, N=N, k=k, s=s: synthetic_height1_dataset(p, N, k, s))
       for p, N, k, s in ((3, 3, 5, 0), (5, 2, 4, 1), (2, 3, 4, 2), (3, 2, 6, 9))},
    "sym2_p3_N2_k5": sym2_dataset,
    "dual_numbers_p2_N2_k4": dual_number_dataset,
}

DIGESTS = {
    'builtin_p2_N1_k4': '59f7421584493a0d',
    'builtin_p2_N2_k4': '4dc81ce9780c44c9',
    'builtin_p2_N3_k4': 'e8f6fc54d1067880',
    'builtin_p3_N1_k4': '2de2775399fe4cd4',
    'builtin_p3_N2_k4': '70c82c4c351b1bb2',
    'builtin_p3_N3_k4': 'f28ab97583d6d450',
    'builtin_p5_N1_k4': '4bbde4a123cc3869',
    'builtin_p5_N2_k4': 'defb5aa23643f353',
    'builtin_p5_N3_k4': '52a032904f4d2922',
    'dual_numbers_p2_N2_k4': '2dc92f4b8dff5f32',
    'sym2_p3_N2_k5': '8b2f0527e6729055',
    'synthetic_p2_N3_s2_k4': '0e3c0f8448516515',
    'synthetic_p3_N2_s9_k6': 'd6d3c8ffe6beacf3',
    'synthetic_p3_N3_s0_k5': '3c1a3a3a4640eee6',
    'synthetic_p5_N2_s1_k4': 'bdeb50e6281720b7',
}


def digest(ds) -> str:
    return hashlib.sha256(canonical_json(ds).encode("utf-8")).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_canonical_json_is_pinned(name):
    """The writer's canonical JSON, and that of the dataset read back from
    it, hash to the pinned digest."""
    ds = DATASETS[name]()
    assert digest(ds) == DIGESTS[name]
    assert digest(dataset_from_json(json.loads(canonical_json(ds)))) == DIGESTS[name]


def drop(*keys):
    def edit(doc):
        *outer, last = keys
        for key in outer:
            doc = doc[key]
        del doc[last]
    return edit


def put(value, *keys):
    def edit(doc):
        *outer, last = keys
        for key in outer:
            doc = doc[key]
        doc[last] = value
    return edit


ORDER_ALGEBRA = ("subgroup_package", "orders", 0, "algebra")


def order_ideal(doc):
    """A one-generator maximal ideal for the first subgroup algebra."""
    algebra = doc["subgroup_package"]["orders"][0]["algebra"]
    algebra["maximal_ideal"] = [[0] * algebra["rank"]]

# Each optional field of the format, set to another value or left out, in
# which case it reads as its default.
EDITS = {
    "as-written": lambda doc: None,
    "no-q-label": drop("q_label"),
    "q-label-2": put(2, "q_label"),
    "no-height-label": drop("height_label"),
    "no-provenance": drop("provenance"),
    "no-modules": drop("modules"),
    "no-module-action": drop("modules", 0, "action"),
    "no-coefficient-ideal": drop("coefficient_algebra", "maximal_ideal"),
    "empty-coefficient-ideal": put([], "coefficient_algebra", "maximal_ideal"),
    "no-package": drop("subgroup_package"),
    "no-shift": drop("subgroup_package", "shift"),
    "no-pairing": drop("subgroup_package", "pairing"),
    "empty-order-ideal": put([], *ORDER_ALGEBRA, "maximal_ideal"),
    "order-ideal": order_ideal,
}


@pytest.mark.parametrize("edit", sorted(EDITS))
@pytest.mark.parametrize("name", sorted(DATASETS))
def test_round_trip(name, edit):
    """Reading what is written gives the same dataset, and the canonical
    JSON is a fixed point, with every optional field set or left out."""
    doc = dataset_to_json(DATASETS[name]())
    EDITS[edit](doc)
    ds = dataset_from_json(doc, validate=False)
    again = dataset_from_json(dataset_to_json(ds), validate=False)
    assert again == ds
    assert canonical_json(again) == canonical_json(ds)


def test_an_empty_maximal_ideal_is_written_only_at_top_level():
    """The format writes the coefficient algebra's maximal ideal always and a
    subgroup algebra's only when it has generators, so that files written
    before subgroup ideals were kept have the same canonical JSON."""
    doc = dataset_to_json(builtin_height1(3, 2, 3))
    assert all("maximal_ideal" not in order["algebra"]
               for order in doc["subgroup_package"]["orders"])
    doc["coefficient_algebra"]["maximal_ideal"] = []
    doc["subgroup_package"]["orders"][0]["algebra"]["maximal_ideal"] = []
    again = dataset_to_json(dataset_from_json(doc))
    assert again["coefficient_algebra"]["maximal_ideal"] == []
    assert "maximal_ideal" not in again["subgroup_package"]["orders"][0]["algebra"]


if __name__ == "__main__":
    for name in sorted(DATASETS):
        print(f"    {name!r}: {digest(DATASETS[name]())!r},")
