"""Byte-stability of the experiment artifacts across refactors.

Refactors of the entry points (the ``repro.api`` facade, one
``run_join`` for every caller, one trace exporter) must not perturb a
single simulated number: each hash below is the sha256 of the canonical
JSON of an artifact, recorded on the commit before the facade landed
("Add device-utilization observability layer...").  A mismatch means a
refactor changed experiment output — a regression, not a baseline to
re-record.
"""

import hashlib
import json

import pytest

from repro.experiments.config import BASE_TAPE, DISK_1996, ExperimentScale
from repro.storage.block import BlockSpec

#: sha256(json.dumps(artifact, sort_keys=True)) at the pre-refactor commit.
BASELINES = {
    "table3": "d2945c666845f44f83ff4dcbf8a36429478267ee69cfcdb6f5fe6a27300a79db",
    "fig4": "19b707fe34faef22176fa643495f12933ace3e6282140557d76984552906d6df",
    "fig5": "a7b453d24888cd79d8aa7ede901065ee4e67c034cded70a077ca8ab04eafbb8e",
    "exp3": "c319662c6ce197621f86f6d90da04d2a95b9d479645e46438261ee10536369f6",
    "exp4": "8f3ed14f838d834670ef808a2052f954ce5a3f10a800dd85e94f51ff6794a9c4",
}

#: sha256(json.dumps(stats_to_dict(stats), sort_keys=True)) of single
#: joins whose paths the experiment artifacts never reach: the bucket
#: spill path (the hot-key pair of ``tests/core/test_bucket_overflow.py``
#: at M=8, D=140 spills 3/3/2 buckets in DT-GH/CDT-GH/CTT-GH) and TT-GH
#: plus the two baselines on the uniform ``small_r``/``small_s`` pair at
#: M=10, D=520.  Each runs without faults and under
#: ``FaultPlan.uniform(0.002, seed=3)``.  Recorded on the commit before
#: the Grace-Hash bucket join was shared between methods.
SINGLE_JOIN_BASELINES = {
    ("hot-key", "DT-GH", False): "03f86c00086f31f384db26098080bd84c2299e167d1f5eb78d5855b2b6f31af8",
    ("hot-key", "DT-GH", True): "9dbcc5beb2ffd176737702feb051a0aec2f4df4a2478838485ee41046d41882a",
    ("hot-key", "CDT-GH", False): "8ac31b28b513c3cc3a0032a3894ff58d40e07b471d136c9ede0217e95adb1dfe",
    ("hot-key", "CDT-GH", True): "5c3c615bdf32ae04c9425396771fc6bdc77a6695b2c19b3202d6c8680fa63a1f",
    ("hot-key", "CTT-GH", False): "9628a250903dd1fff7fcdd6827f34f34a0f5505a21dd218428ef27a53484ee00",
    ("hot-key", "CTT-GH", True): "b84b58e4fabb0eafa0532a8d0be5dd61ac4e3494e27ebb2b2861772b11d561df",
    ("uniform", "TT-GH", False): "097a1cbc96968e4093dcd5b4e3e29bcda7d55cc1c1abe4d29744f8dc46e5c9cf",
    ("uniform", "TT-GH", True): "410fb4dabf57488c6ca2201557de917a512c59179f11e631f121ce9429145bfd",
    ("uniform", "STAGE-GH", False): "7c8a7c84c52955cf8a1e45a14511ca96dcb8ae2f16ced9cac9d0c12e713e3e11",
    ("uniform", "STAGE-GH", True): "04d7ba0c7fe0d2e3900aaa76f15411b24b25c87a403d9ec2745907186933ef51",
    ("uniform", "NAIVE-NL", False): "1ba9b0f1850384ba289a4924a1ee551138d6a2aa392f2fa0ed4dee7deceafe0c",
    ("uniform", "NAIVE-NL", True): "3978749afe75cbd8d586d9cb172fa8509e6f830be9db91fd967a640e6f980635",
    # The nested-block methods' mini-joins (held S window, streamed R
    # copy) on the uniform pair, and DT-GH/CTT-GH on the duplicate-heavy
    # pair of ``duplicate_pair()``, both at M=10, D=520.  The nested-block
    # runs draw no fault at this rate, so their two digests agree.
    # Recorded on the commit before the data-plane join was split into a
    # build and a probe.
    ("uniform", "DT-NB", False): "e03c5e5373b9bab134546fc722ec62ab5471959e49c44d693cd3b4cbb2d952b1",
    ("uniform", "DT-NB", True): "e03c5e5373b9bab134546fc722ec62ab5471959e49c44d693cd3b4cbb2d952b1",
    ("uniform", "CDT-NB/MB", False): "9bc29855d8fe4369b26da340644d7bbc140e5584e7686443445bc84c1ed9c190",
    ("uniform", "CDT-NB/MB", True): "9bc29855d8fe4369b26da340644d7bbc140e5584e7686443445bc84c1ed9c190",
    ("uniform", "CDT-NB/DB", False): "0b467f6a5650e497887973d8554775332798995193368ac919ec05a8f0f76d35",
    ("uniform", "CDT-NB/DB", True): "0b467f6a5650e497887973d8554775332798995193368ac919ec05a8f0f76d35",
    ("duplicates", "DT-GH", False): "14ea2c6efd9b19795b1f0e02d4297ed39394046091e9d99771d649ad9aa10da4",
    ("duplicates", "DT-GH", True): "31b8420ed76f7167913ce1da64d580613560a560de51959bcd18ca5db8db25e5",
    ("duplicates", "CTT-GH", False): "ddb945344f56cadada9cfa283b02aaa1d9c79bf58cfabfcf196a1b859c8bad20",
    ("duplicates", "CTT-GH", True): "a5a3da2c0f20334054def2c86aff1391487f8e0c9076e20ef1c874022db049ac",
}

#: sha256 of the ``api.trace`` JSONL (device busy intervals, queue-depth
#: samples, spans) of CDT-GH and CTT-GH on the uniform ``small_r``/
#: ``small_s`` pair at M=10, D=520 with ``trace_devices=True``, without
#: faults and under ``FaultPlan.uniform(0.002, seed=3)``.  No artifact
#: hash covers device trace bytes.  Recorded on the commit before disks
#: and tape drives shared one device operation.
DEVICE_TRACE_BASELINES = {
    ("CDT-GH", False): "c829239b1ce21e724fa0d9e3a070f665893662af04e7c27d44e2264cc6ef8f0b",
    ("CDT-GH", True): "b341d8c943bc02bdb49c05727d1a8231d08dedcf8da51965159aa24242217882",
    ("CTT-GH", False): "9d9f5747f69d10902337c5504ecb6ad727f1c3e40940460a659f9ba41c11f8ac",
    ("CTT-GH", True): "3f2872ff2012cd36d48008bde2d2bd10c7d936fbd2e239ccb3b0a31bbe4943cb",
}

#: sha256(json.dumps(stats_to_dict(stats), sort_keys=True)) of CTT-GH
#: and TT-GH on the same pair with every tape positioning option on:
#: READ REVERSE, a distance-dependent locate and a stop/start penalty.
#: Every pinned artifact runs with all three off.  Recorded on the same
#: commit as ``DEVICE_TRACE_BASELINES``.
TAPE_OPTION_BASELINES = {
    "CTT-GH": "f27c7823e6f2b34a4a17e6c20ca46c1f2e773afd4085e68d2b427b376559eac7",
    "TT-GH": "6cf8751ca4c811decc1912f0d28b44b5ba9c8cc17ceae53a40b2a132f7610658",
}

#: The recorded fingerprint of a canonical join task — cache entries
#: written before the refactor must still be addressable.
JOIN_TASK_FINGERPRINT = (
    "6240a682ac46b80b58a1b50ae99d50ee4cba02678bb9d91d257f80b27271a031"
)

#: The recorded fingerprint of a canonical cache-less service task,
#: taken on the commit before the HSM layer landed.  A cache-less
#: ServiceConfig must serialize without a "cache" key, so service sweep
#: entries written pre-HSM stay addressable.
SERVICE_TASK_FINGERPRINT = (
    "9fb0a898377a229829b028baf07158a102f01ff3a0201ba50e9e2a48928314a2"
)


def duplicate_pair():
    """R and S sized like ``small_r``/``small_s``, every key ~8 times."""
    from repro.relational.datagen import self_join_relation

    return (
        self_join_relation("R", 5.0, tuple_bytes=4096, duplicates=8, seed=11),
        self_join_relation("S", 20.0, tuple_bytes=4096, duplicates=8, seed=12),
    )


def digest(payload: dict) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


@pytest.fixture(scope="module")
def scale_8k():
    return ExperimentScale(scale=0.05, tuple_bytes=8192)


@pytest.fixture(scope="module")
def scale_2k():
    return ExperimentScale(scale=0.05)


class TestArtifactBytes:
    def test_table3(self, scale_8k):
        from repro.experiments.exp1 import run_experiment1

        assert digest(run_experiment1(scale=scale_8k).to_dict()) == BASELINES["table3"]

    def test_fig4(self, scale_8k):
        from repro.experiments.exp1 import run_figure4

        assert digest(run_figure4(scale=scale_8k).to_dict()) == BASELINES["fig4"]

    def test_fig5(self, scale_2k):
        from repro.experiments.exp2 import run_experiment2

        assert digest(run_experiment2(scale=scale_2k).to_dict()) == BASELINES["fig5"]

    def test_exp3(self, scale_2k):
        from repro.experiments.exp3 import run_experiment3

        result = run_experiment3("base", scale=scale_2k)
        assert digest(result.to_dict(BlockSpec())) == BASELINES["exp3"]

    def test_exp4(self, scale_2k):
        from repro.experiments.exp4_faults import run_experiment4

        result = run_experiment4(scale=scale_2k, max_rate=0.01, fault_seed=0)
        assert digest(result.to_dict()) == BASELINES["exp4"]


@pytest.mark.parametrize("pair,symbol,faulty", sorted(SINGLE_JOIN_BASELINES))
class TestSingleJoinBytes:
    def test_stats_digest(self, pair, symbol, faulty, small_r, small_s):
        from repro.core.baselines import BASELINES as BASELINE_METHODS
        from repro.core.registry import ALL_METHODS
        from repro.core.spec import JoinSpec
        from repro.faults.plan import FaultPlan
        from repro.sweep.serialize import stats_to_dict
        from tests.core.test_bucket_overflow import hot_key_pair

        if pair == "hot-key":
            (relation_r, relation_s), memory, disk = hot_key_pair(), 8.0, 140.0
        elif pair == "duplicates":
            (relation_r, relation_s), memory, disk = duplicate_pair(), 10.0, 520.0
        else:
            relation_r, relation_s, memory, disk = small_r, small_s, 10.0, 520.0
        spec = JoinSpec(
            relation_r, relation_s, memory_blocks=memory, disk_blocks=disk,
            fault_plan=FaultPlan.uniform(0.002, seed=3) if faulty else None,
        )
        methods = {m.symbol: m for m in ALL_METHODS + BASELINE_METHODS}
        stats = methods[symbol].run(spec)
        expected = SINGLE_JOIN_BASELINES[(pair, symbol, faulty)]
        assert digest(stats_to_dict(stats)) == expected


def uniform_spec(small_r, small_s, **updates):
    from repro.core.spec import JoinSpec

    return JoinSpec(small_r, small_s, memory_blocks=10.0, disk_blocks=520.0, **updates)


def device_trace_digest(symbol, faulty, small_r, small_s, trace_dir) -> str:
    from repro.api import run_join, trace
    from repro.faults.plan import FaultPlan

    spec = uniform_spec(
        small_r, small_s, trace_devices=True,
        fault_plan=FaultPlan.uniform(0.002, seed=3) if faulty else None,
    )
    jsonl = trace(run_join(spec, method=symbol), str(trace_dir))[0]
    with open(jsonl, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def tape_option_digest(symbol, small_r, small_s) -> str:
    from repro.api import run_join
    from repro.storage.tape import TapeDriveParameters
    from repro.sweep.serialize import stats_to_dict

    tape = TapeDriveParameters(
        supports_read_reverse=True, locate_s_per_gb=10.0, stop_start_penalty_s=0.5
    )
    spec = uniform_spec(small_r, small_s, tape_params_r=tape, tape_params_s=tape)
    return digest(stats_to_dict(run_join(spec, method=symbol)))


@pytest.mark.parametrize("symbol,faulty", sorted(DEVICE_TRACE_BASELINES))
def test_device_trace_bytes(symbol, faulty, small_r, small_s, tmp_path):
    expected = DEVICE_TRACE_BASELINES[(symbol, faulty)]
    assert device_trace_digest(symbol, faulty, small_r, small_s, tmp_path) == expected


@pytest.mark.parametrize("symbol", sorted(TAPE_OPTION_BASELINES))
def test_tape_option_stats_bytes(symbol, small_r, small_s):
    assert tape_option_digest(symbol, small_r, small_s) == TAPE_OPTION_BASELINES[symbol]


class TestCacheAddressing:
    def test_join_task_fingerprint_is_unchanged(self, scale_8k):
        from repro.sweep import task_fingerprint
        from repro.sweep.tasks import join_task

        task = join_task(
            "CTT-GH", 500.0, 1000.0, memory_blocks=100.0, disk_blocks=120.0,
            tape=BASE_TAPE, disk_params=DISK_1996, scale=scale_8k,
        )
        assert task_fingerprint(task.kind, task.payload) == JOIN_TASK_FINGERPRINT

    def test_service_task_fingerprint_is_unchanged(self, scale_2k):
        from repro.experiments.exp5_service import service_workload
        from repro.service.requests import ServiceConfig
        from repro.sweep import task_fingerprint
        from repro.sweep.tasks import service_task

        config = ServiceConfig(scale=scale_2k)
        assert "cache" not in config.to_dict()
        task = service_task("fifo", service_workload(4), config)
        assert task_fingerprint(task.kind, task.payload) == SERVICE_TASK_FINGERPRINT

    def test_cacheless_stats_serialization_has_no_cache_keys(self, scale_2k):
        from repro.api import run_join
        from repro.sweep.serialize import stats_to_dict

        relation_r, relation_s = scale_2k.relations(18.0, 100.0)
        spec = scale_2k.join_spec(
            relation_r, relation_s,
            memory_blocks=scale_2k.blocks(9.0),
            disk_blocks=scale_2k.blocks(50.0),
        )
        stats = run_join(spec, method="DT-GH")
        payload = stats_to_dict(stats)
        assert "partition_cache" not in payload
        assert not any(key.startswith("cache_") for key in payload)
