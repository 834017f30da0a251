"""The BENCH record writer stamps host identity into every record.

Committed ``BENCH_*.json`` files are only interpretable when they say
what machine produced them — core count, platform, interpreter and
numeric-stack versions.  The stamp happens centrally in ``write_bench_json``
so no individual benchmark can forget it.
"""

import json

from repro.bench.reporting import host_metadata, write_bench_json


def test_host_block_stamped_into_every_record(tmp_path):
    path = tmp_path / "BENCH_x.json"
    write_bench_json(path, {"benchmark": "x", "hops_per_sec": {"batch": 1}})
    record = json.loads(path.read_text())
    host = record["host"]
    assert host["cpu_count"] >= 1
    for key in ("platform", "machine", "python", "numpy"):
        assert isinstance(host[key], str) and host[key]
    assert set(host) == {"cpu_count", "platform", "machine", "python", "numpy"}
    # The caller's payload is not mutated by the stamp.
    payload = {"benchmark": "y"}
    write_bench_json(tmp_path / "BENCH_y.json", payload)
    assert "host" not in payload


def test_explicit_host_block_wins(tmp_path):
    """A benchmark that records host facts itself keeps them verbatim."""
    path = tmp_path / "BENCH_z.json"
    write_bench_json(path, {"benchmark": "z", "host": {"cpu_count": 128}})
    assert json.loads(path.read_text())["host"] == {"cpu_count": 128}


def test_host_metadata_matches_this_host():
    import numpy

    host = host_metadata()
    assert host["numpy"] == numpy.__version__
