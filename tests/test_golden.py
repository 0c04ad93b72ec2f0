"""Golden digests: fragment bytes and repair plans must not drift.

The digests were recorded from the per-scheme codec implementation and pin
its exact outputs, so any rework of the codec internals has to reproduce
every fragment byte and every repair plan.
"""

import hashlib
from itertools import combinations

import pytest

from durakit.codec.fragments import fragment_to_bytes
from durakit.codec.lrc import DEFAULT_DC_ASSIGNMENT, LRC_6_2_2, lrc_encode
from durakit.codec.repair import repair_plan
from durakit.codec.rs import rs_encode
from durakit.errors import UnrecoverableError
from durakit.placement import Placement, balanced_placement
from durakit.probability import ErasureScheme, ReplicationScheme

LENGTHS = (1, 7, 4096, 4099)

#: scheme -> SHA-256 over the serialized fragments of every length in LENGTHS
FRAGMENT_DIGESTS = {
    "rs:1+0":
        "256224f320f3512e44c673b66b0aead14c10998e1ead17fbafa0644bceda697d",
    "rs:1+2":
        "13bcd8a153c1001734e2536f566c3ff69a1141f6c627e420d9c98671bf4904e5",
    "rs:2+1":
        "731701f19e960af6e1e76d07249ec0b64fd2aef8788e05f89ab736e819ad6663",
    "rs:4+2":
        "dea9fc3f73c6fe6e9b803245cf478afc6b419d30998ffb98bbe22e33148ad0ff",
    "rs:8+3":
        "fae61bbc8805403d5fad2f367a88ffc2c91632a8110cd2a085c5548fbdff80ae",
    "rs:10+4":
        "8536a526c2fd24d1137bff194c498df0d08a9d02655809bc455c89c7cbadeb7e",
    "rs:17+3":
        "f0cc208e9e10decbe2b9a60da1b0d84bdd9a5df86fd04baf4c12c7a7ff9d7f5a",
    "rs:200+55":
        "6ed5a523d0b1d386a1f20983aae1d86b0ecff7ed5e02e404f1717c7865d8d6f6",
    "lrc":
        "34709a01995456526ac343c85fc4e0e0de1d1f71c7bfb5f70fab8fef34592dc4",
}

#: shards of 3 stripes of 256 KiB plus one odd byte, the last one padded by
#: 3 bytes: the striped pair-table kernel path, recorded on the byte-table kernel
STRIPED_SHARD = 3 * 256 * 1024 + 1
STRIPED_DIGESTS = {
    "rs:8+3":
        "68d66c2002ec281c8b0c45a40b3a8b665b99aba9e5e7be839528f57d186c3931",
    "lrc":
        "e11b01e239b8cf8008e5b62c75920c1fe824a9f77100cb6f83dce5ff0649418f",
}

REPAIR_CASES = 17_314
REPAIR_DIGEST = "07330c67f7f2f70dd6195b44d773b0bb66ea20c593b414d6104a9675823dd066"


def sample(length):
    return hashlib.shake_256(f"golden-{length}".encode()).digest(length)


def encode(name, data):
    if name == "lrc":
        return lrc_encode(data)
    m, n = (int(v) for v in name[3:].split("+"))
    return rs_encode(data, m, n)


@pytest.mark.parametrize("name", sorted(FRAGMENT_DIGESTS))
def test_fragment_bytes(name):
    sha = hashlib.sha256()
    for length in LENGTHS:
        for fragment in encode(name, sample(length)):
            sha.update(fragment_to_bytes(fragment))
    assert sha.hexdigest() == FRAGMENT_DIGESTS[name]


@pytest.mark.parametrize("name,k", [("rs:8+3", 8), ("lrc", 6)])
def test_striped_fragment_bytes(name, k):
    fragments = encode(name, sample(k * STRIPED_SHARD - 3))
    assert {f.payload_len for f in fragments} == {STRIPED_SHARD}
    sha = hashlib.sha256()
    for fragment in fragments:
        sha.update(fragment_to_bytes(fragment))
    assert sha.hexdigest() == STRIPED_DIGESTS[name]


def repair_placements():
    yield Placement(LRC_6_2_2, DEFAULT_DC_ASSIGNMENT)
    schemes = (
        LRC_6_2_2,
        ErasureScheme(8, 3),
        ErasureScheme(10, 4),
        ErasureScheme(6, 3),
        ErasureScheme(4, 2),
        ReplicationScheme(2),
        ReplicationScheme(3),
    )
    for scheme in schemes:
        for dcs in range(1, 7):
            yield balanced_placement(scheme, dcs)


def test_repair_plans():
    sha = hashlib.sha256()
    cases = 0
    for placement in repair_placements():
        count = placement.scheme.fragment_count
        for failed in range(count):
            others = [i for i in range(count) if i != failed]
            for size in range(3):
                for unavailable in combinations(others, size):
                    try:
                        result = repair_plan(placement, failed, unavailable).sources
                    except UnrecoverableError:
                        result = "UnrecoverableError"
                    line = (
                        f"{placement.scheme.label} {placement.assignment} "
                        f"{failed} {unavailable} -> {result}\n"
                    )
                    sha.update(line.encode())
                    cases += 1
    assert cases == REPAIR_CASES
    assert sha.hexdigest() == REPAIR_DIGEST
