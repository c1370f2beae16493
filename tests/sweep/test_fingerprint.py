"""Fingerprints must be stable, canonical and sensitive to every knob."""

import pytest

from repro.experiments.config import BASE_TAPE, DISK_1996, ExperimentScale
from repro.sweep import CODE_VERSION, canonical_json, task_fingerprint
from repro.sweep.tasks import join_task


def make_task(**overrides):
    params = dict(
        symbol="CTT-GH",
        r_mb=18.0,
        s_mb=100.0,
        memory_blocks=20.0,
        disk_blocks=40.0,
        tape=BASE_TAPE,
        disk_params=DISK_1996,
        scale=ExperimentScale(scale=0.1),
    )
    params.update(overrides)
    return join_task(**params)


class TestCanonicalJson:
    def test_key_order_is_irrelevant(self):
        assert canonical_json({"a": 1, "b": 2}) == canonical_json({"b": 2, "a": 1})

    def test_output_is_compact_and_sorted(self):
        assert canonical_json({"b": [1.5], "a": None}) == '{"a":null,"b":[1.5]}'

    def test_non_finite_floats_are_rejected(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("inf")})


class TestTaskFingerprint:
    def test_same_payload_same_hash(self):
        a, b = make_task(), make_task()
        assert task_fingerprint(a.kind, a.payload) == task_fingerprint(b.kind, b.payload)

    def test_hash_is_hex_sha256(self):
        task = make_task()
        fingerprint = task_fingerprint(task.kind, task.payload)
        assert len(fingerprint) == 64
        int(fingerprint, 16)  # must be valid hex

    @pytest.mark.parametrize(
        "override",
        [
            {"symbol": "CDT-GH"},
            {"r_mb": 19.0},
            {"s_mb": 101.0},
            {"memory_blocks": 21.0},
            {"disk_blocks": 41.0},
            {"scale": ExperimentScale(scale=0.2)},
            {"scale": ExperimentScale(scale=0.1, seed=8)},
            {"scale": ExperimentScale(scale=0.1, n_disks=3)},
            {"verify": True},
            {"trace": True},
        ],
    )
    def test_any_parameter_change_invalidates(self, override):
        base, changed = make_task(), make_task(**override)
        assert task_fingerprint(base.kind, base.payload) != task_fingerprint(
            changed.kind, changed.payload
        )

    def test_kind_is_part_of_the_hash(self):
        task = make_task(trace=True)
        assert task_fingerprint("join", task.payload) != task_fingerprint(
            "assumption", task.payload
        )

    def test_salt_change_invalidates(self):
        task = make_task()
        assert task_fingerprint(task.kind, task.payload) != task_fingerprint(
            task.kind, task.payload, salt=CODE_VERSION + "-next"
        )
