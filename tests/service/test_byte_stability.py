"""Byte-stability of the experiment artifacts across refactors.

Refactors of the entry points (the ``repro.api`` facade, one
``run_join`` for every caller, one trace exporter) must not perturb a
single simulated number: each hash below is the sha256 of the canonical
JSON of an artifact, recorded on the commit before the facade landed
("Add device-utilization observability layer...").  A mismatch means a
refactor changed experiment output — a regression, not a baseline to
re-record.
"""

import dataclasses
import hashlib
import json
import pathlib
import runpy

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
    # The three ``run_assumption_checks()`` results, each as a dict under
    # its class name; recorded on the commit before the checks took their
    # tape drive from ``StorageSystem``.
    "assumptions": "1c1a65850ca025f6f94c98b27e3ca4696e67eea82891dbe2ce95c2b2384b0be2",
    # The analytical Figures 1-3, ``figureN().to_dict()``; recorded on the
    # commit before the cost model took feasibility, d and B from the
    # join methods.
    "fig1": "3bc42c7d04660b8270d2ae75f59a91f81805407a6bd8dc387430630f94645f80",
    "fig2": "9e8265a1c70393e9ed4da9d8679d8a4003a68c13f1488f509ff3e4f229070d28",
    "fig3": "28e1fcfdce9a90b12fe6ad2cd0d64e341a55482598fdf08a984cc69cf60fb2bf",
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

#: sha256(json.dumps(stats.obs_summary, sort_keys=True)) of the same
#: traced runs as ``DEVICE_TRACE_BASELINES``: the derived utilization,
#: overlap, balance, counter and queue-depth numbers, which no artifact
#: hash covers.  Recorded on the commit before the observer became the
#: one recorder of busy intervals, time series and counters.
OBS_SUMMARY_BASELINES = {
    ("CDT-GH", False): "539943c4314ff6d446032d526948d8dcf7cc3e9f05623711120a41329af03803",
    ("CDT-GH", True): "f00e5627a75ca4db1d4e22975e310c9d51c1fcabedc318cec03e649a66b277c2",
    ("CTT-GH", False): "43efef3b7354b42ec836647eca95babc231155663c260bc561e8037c12d6fa39",
    ("CTT-GH", True): "e71cf084af00cebd0eb491c97059d84aae9ed62b9d1ba68a6015acee16d9d93d",
}

#: CDT-NB/MB's device schedule on the same pair and fault plans as
#: ``DEVICE_TRACE_BASELINES``: the sha256 of its ``api.trace`` JSONL with
#: the ``memory.used_blocks`` samples removed (``"trace"``), and of its
#: ``obs_summary`` (``"obs"``).  The memory samples are left out because
#: they follow how the method books its buffers, not what the devices
#: did.  The run draws no fault at this rate, so the two plans agree.
#: Recorded on the commit before CDT-NB/MB's Step II became one
#: overlapped ``scan_tape``.
NB_MB_SCHEDULE_BASELINES = {
    ("trace", False): "ef94c99fc71e2126604e77dff3fa02bea0b9e97c3a0a3debd11ba014553f4bd3",
    ("trace", True): "ef94c99fc71e2126604e77dff3fa02bea0b9e97c3a0a3debd11ba014553f4bd3",
    ("obs", False): "6a87e67b3ed94ad213ff53193df1cd6b7b4e9ef291c057f38872b1966b1f9051",
    ("obs", True): "6a87e67b3ed94ad213ff53193df1cd6b7b4e9ef291c057f38872b1966b1f9051",
}

#: sha256(json.dumps(stats_to_dict(stats), sort_keys=True)) of every
#: paper method on the uniform ``small_r``/``small_s`` pair at M=10,
#: D=520 under :data:`RETRY_PLAN`, in registry order.  At that rate every
#: method retries disk or tape reads (2, 10, 15, 48, 52, 52 and 43
#: retries), which the ``FaultPlan.uniform(0.002, seed=3)`` pins above
#: never reach.  Recorded on the commit before a hash-bucket flush
#: became one batch.
RETRY_PLAN_FIELDS = dict(
    seed=3, disk_error_rate=0.05, tape_read_error_rate=0.05, stall_rate=0.05
)
RETRY_PATH_BASELINES = {
    "DT-NB": "f645105fba4d5401b641f3dd3b6c58a7d686a79101495cd6b1a450b166226238",
    "CDT-NB/MB": "6c508981ebb9e0715e5cc11690a510fbf5b15db8ffacef8415c422260d3eaa86",
    "CDT-NB/DB": "4bf07b8a88b3242e541d5d489aaa661b6abdeaf02d466232d6664d1b02a12462",
    "DT-GH": "c4572dbd4515a3bcbfbdd7764540d0be877768b402e7f69b282962801fe66c11",
    "CDT-GH": "a0ddd49d8957d25df9a71e724f5d7c732770ee6380656a7b43eb578c1544e717",
    "CTT-GH": "6b92da8958c66c81e47a12f5f49108fe1c450e5d2e8bd43b678f9c0f686c2b84",
    "TT-GH": "7c4c8b57c4d73bac6ccc4ef8a557e48a22226d28b459037b8dd70d9775d29f19",
}

#: The same digests of the four ``RIGGED`` runs of
#: ``tests/faults/test_checkpoint_restart.py`` (seed 7, rate 0.02,
#: Step II only, fail-fast retry policy): every injected error restarts
#: a bucket (10, 10, 9 and 12 restarts), so these reach the
#: restore-on-failure of a popped S batch and the consume-after-read of
#: ``read_chunks``.  Recorded on the same commit as
#: ``RETRY_PATH_BASELINES``.
RESTART_PATH_BASELINES = {
    "DT-GH": "81938dc34076c5166993bb47e34bae5a1b98614c5bbb46e4f678d41d4ee01e1b",
    "CDT-GH": "d7dac760e59708c20828bd95bc8d6a7337814f0b31add3279577549b3ddc422a",
    "CTT-GH": "89ee60eca5b933d9c2af99f67222889fa41f94af46661d202033327e3b0ce88f",
    "TT-GH": "a24b2cb19e23b16e1640c541b337d5f2e2c700e4032b4158d792008f7e5c3e39",
}

#: sha256(json.dumps(report.to_dict(), sort_keys=True)) of service runs
#: at scale 0.05.  ``WorkloadReport.to_dict()`` carries the merged
#: ``device_utilization`` that the exp5 and exp6 artifacts leave out.
#: The exp5 keys are the 6-job mixed workload under each policy; the
#: exp6 keys are the 12-job Zipfian workload (skew 0.8) with a 200 MB
#: LRU partition cache and simulated profiles, run cold and then warm
#: on one ``JoinService``.  Recorded on the same commit as
#: ``OBS_SUMMARY_BASELINES``.
SERVICE_REPORT_BASELINES = {
    ("exp5", "fifo"): "2298560ecf7a871a828c531da603ba71ca278fab81f64a9554ae2ece7cd35a1b",
    ("exp5", "sjf"): "0dca775411a9f0e26a8b430ae87f11b9073b066b8095824da5a869ed755b1e38",
    ("exp5", "affinity"): "60e9dd1ddf64957006bd74c0db690708447be864338fb5d357a0ec7993a1daca",
    ("exp6", "cold"): "97d004b84f7c7bfdda919e5e3cd4f564503f006aaa302d120e4ff652f0038efc",
    ("exp6", "warm"): "ace4a3ac0275bdb7ba1cd18c7ad99102f58fd22662738685b3656b019260d096",
}

#: sha256 digests of the partition-cache paths no other pin reaches, at
#: scale 0.05.  ``exp6`` is ``run_experiment6(...).to_dict()`` under each
#: eviction policy (both evict at several points).  ``service-cost`` is
#: the 12-job Zipfian workload (skew 0.8) through one ``JoinService``
#: with a 125 MB cost-aware cache and simulated profiles, run cold (3
#: evictions, 7 rejected admissions) and then warm.  ``single-join`` is
#: DT-GH or CDT-GH run twice through ``api.run_join`` on one
#: ``PartitionCache`` of 50 MB, on the 18/100 MB pair at M=9, D=50: both
#: runs' ``stats_to_dict`` plus their four ``cache_*`` counters, and the
#: final ``cache.report().to_dict()``.  Recorded on the commit before
#: the partition catalog folded into ``PartitionCache``.
CACHE_PATH_BASELINES = {
    ("exp6", "cost"): "8455b235baa6eacf9ec639b867a139a2633e57ff496592c7fab8a07ee8d51dd4",
    ("exp6", "lru"): "bd2f35c0779fe4f6675118ffc2de7b63539d01c6ec851dd2635c068c86450c95",
    ("service-cost", "cold"): "a88e4023f4429eddf8e8edb1580c98293db32ee28f04dd8f6ea847496f9dd15b",
    ("service-cost", "warm"): "0b23b865b781ee97af09191325752d5a49ebdd8692c4f9a8e4b298eeb5dd21bb",
    ("single-join", "CDT-GH"): "80b16aa4ef6aba0d935091dfac66f4034f0c0140900b152d7f56c4ab87bed426",
    ("single-join", "DT-GH"): "372ebf9e93145d1bdd184385b63504b9de11a4323e26c2e33019f377ea772be5",
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

#: sha256 of :func:`planner_payload` over the planner's verdicts: on the
#: four ``tests/costmodel/test_model_vs_sim.py`` configurations of the
#: ``small_r``/``small_s`` pair (``"grid"``) and on the Experiment 3 frame
#: at scale 0.03 over its nine M fractions (``"exp3"``).  The payload
#: holds the chosen method, every ranked method's symbol, estimate,
#: Step I and II seconds, iterations and R scans, and every rejected
#: method's symbol and reason.  Recorded on the same commit as the
#: Figure 1-3 hashes.
PLANNER_BASELINES = {
    "grid": "ecd8aea4b9a6c0ac465db7af7d86e044c4a9b78977bb8033bde9c0ab844de675",
    "exp3": "222b45024cbcca4bfdb8a02c49b7c897040b11f78cbb52cfa5eb838c9dff4a04",
}

#: ``examples/tape_query.py``'s Q1-Q4 as (value, join method, passes).
#: Q1-Q3 were recorded before a query became one simulation and hold
#: since.  Q4's join was rebaselined when it came to run after its filter
#: on the same clock and drives: it reads R' from the scratch tape where
#: the filter left the head at the file's end, so its first read pays one
#: 2 s reposition (76.33271711774593 s before, 78.33271711774603 s then).
#: Q4 was rebaselined again when a mid-plan cartridge swap came to go
#: through the library robot: ``sales`` displaces ``customers`` on the R
#: drive for one exchange out and one in, plus the drive's load time
#: (30 + 30 + 30 s), and the join, now starting 90 s later on the clock,
#: reads 78.3327171177462 s, a last-digit change of the same schedule.
#: The swap then came to rewind ``customers`` before ejecting it, since
#: the filter left its head past block 0: 10 + 30 + 30 + 30 s.
QUERY_RECORD = {
    "Q1": (76800, None, (("scan sales", 75.0),)),
    "Q2": (32299, None, (("scan sales", 75.0),)),
    "Q3": (19122, "CDT-GH", (("join via CDT-GH", 157.5262732373993),)),
    "Q4": (
        1874,
        "CDT-NB/MB",
        (
            ("filter customers (909/9216 kept)", 9.8876953125),
            ("mount sales on tape_r", 100.0),
            ("join via CDT-NB/MB", 78.3327171177462),
        ),
    ),
}

#: The recorded fingerprint of a canonical join task — cache entries
#: written before the refactor must still be addressable.
JOIN_TASK_FINGERPRINT = (
    "6240a682ac46b80b58a1b50ae99d50ee4cba02678bb9d91d257f80b27271a031"
)

#: The recorded fingerprint of a canonical cache-less service task.  A
#: cache-less ServiceConfig serializes without a "cache" key.  Re-pinned
#: (from 9fb0a898…) when the payload lost its "estimator" key, which a
#: fault plan now implies, and the config its "n_drives" key, since the
#: service runs on a StorageSystem's two drives; both values are the
#: old payload's fingerprint with those two keys taken out.  Re-pinned
#: again (from 8449cf1f…) when the config lost its "clamp_memory_floor"
#: key, a knob nothing set: the old payload's fingerprint without it.
SERVICE_TASK_FINGERPRINT = (
    "9311e566bddf19d9f90432248eeb9689581935ad52a342292ed64e6cb35544df"
)

#: Fingerprints of the three default ``assumption`` tasks, of a join task
#: carrying a fault plan and a retry policy, and of a service task whose
#: config has a partition cache.  Recorded on the commit before the sweep
#: payloads lost their per-class dict codecs, so every cache entry written
#: before it stays addressable.  The cached service task was re-pinned
#: (from 3dbc6ae7…, then from 9138604e…) for the same removed keys as
#: ``SERVICE_TASK_FINGERPRINT``.
ASSUMPTION_TASK_FINGERPRINTS = {
    "media_exchange": "9220ba1544f9864e6f2f08f1b5bc03779d9914842798ad2b7b92db997d823c86",
    "disk_positioning": "7042327a22c8dddb09bea46e134a114c29ff3cfaae08715e9f520103d6e8d965",
    "locate_sensitivity": "c624344674ed2f7f0976829e58d0cfa5a8c07148a3d3f0d5744767e1925084ef",
}
FAULTED_JOIN_TASK_FINGERPRINT = (
    "80c02c94f988afac226b02d3d0f9cbb8be6f4b9d7feef2eff65ca2db701ea5da"
)
CACHED_SERVICE_TASK_FINGERPRINT = (
    "439ba3ae860cc5e579abd0996b9c58baa172af9174b117f5e8d7003d3a38cf89"
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


@pytest.mark.parametrize("symbol,faulty", sorted(OBS_SUMMARY_BASELINES))
def test_obs_summary_bytes(symbol, faulty, small_r, small_s):
    from repro.api import run_join
    from repro.faults.plan import FaultPlan

    spec = uniform_spec(
        small_r, small_s, trace_devices=True,
        fault_plan=FaultPlan.uniform(0.002, seed=3) if faulty else None,
    )
    stats = run_join(spec, method=symbol)
    assert digest(stats.obs_summary) == OBS_SUMMARY_BASELINES[(symbol, faulty)]


@pytest.mark.parametrize("faulty", [False, True])
def test_nb_mb_schedule_bytes(faulty, small_r, small_s, tmp_path):
    from repro.api import run_join, trace
    from repro.faults.plan import FaultPlan

    spec = uniform_spec(
        small_r, small_s, trace_devices=True,
        fault_plan=FaultPlan.uniform(0.002, seed=3) if faulty else None,
    )
    stats = run_join(spec, method="CDT-NB/MB")
    with open(trace(stats, str(tmp_path))[0], "rb") as handle:
        lines = [
            line for line in handle
            if json.loads(line).get("series") != "memory.used_blocks"
        ]
    assert hashlib.sha256(b"".join(lines)).hexdigest() == (
        NB_MB_SCHEDULE_BASELINES[("trace", faulty)]
    )
    assert digest(stats.obs_summary) == NB_MB_SCHEDULE_BASELINES[("obs", faulty)]


@pytest.mark.parametrize("symbol", list(RETRY_PATH_BASELINES))
def test_retry_path_bytes(symbol, small_r, small_s):
    from repro.api import run_join
    from repro.faults.plan import FaultPlan
    from repro.sweep.serialize import stats_to_dict

    spec = uniform_spec(small_r, small_s, fault_plan=FaultPlan(**RETRY_PLAN_FIELDS))
    stats = run_join(spec, method=symbol)
    assert stats.fault_retries > 0  # the pin must keep reaching a retry
    assert digest(stats_to_dict(stats)) == RETRY_PATH_BASELINES[symbol]


@pytest.mark.parametrize("symbol", list(RESTART_PATH_BASELINES))
def test_restart_path_bytes(symbol, small_r, small_s):
    from repro.faults.plan import FaultPlan
    from repro.sweep.serialize import stats_to_dict
    from tests.faults.test_checkpoint_restart import FAIL_FAST, RIGGED, run_method

    _symbol, rate_field, kinds = next(row for row in RIGGED if row[0] == symbol)
    plan = FaultPlan(seed=7, kinds=kinds, step2_only=True, **{rate_field: 0.02})
    stats = run_method(
        symbol, small_r, small_s, fault_plan=plan, retry_policy=FAIL_FAST
    )
    assert stats.bucket_restarts > 0  # the pin must keep reaching a restart
    assert digest(stats_to_dict(stats)) == RESTART_PATH_BASELINES[symbol]


def service_report_digests() -> dict:
    """Digests of the ``SERVICE_REPORT_BASELINES`` runs, by key."""
    from repro.experiments.exp5_service import (
        EXPERIMENT5_POLICIES,
        experiment5_config,
        service_workload,
    )
    from repro.experiments.exp6_hsm import experiment6_config, zipfian_workload
    from repro.service.estimators import SimulatedEstimator
    from repro.service.scheduler import JoinService

    scale = ExperimentScale(scale=0.05)
    digests = {}
    for policy in EXPERIMENT5_POLICIES:
        service = JoinService(experiment5_config(scale))
        for request in service_workload(6):
            service.submit(request)
        digests[("exp5", policy)] = digest(service.run(policy).to_dict())
    service = JoinService(
        experiment6_config(scale, 200.0, "lru"), estimator=SimulatedEstimator()
    )
    for request in zipfian_workload(12, 0.8, 0):
        service.submit(request)
    for label in ("cold", "warm"):
        digests[("exp6", label)] = digest(service.run("fifo").to_dict())
    return digests


@pytest.fixture(scope="module")
def service_digests():
    return service_report_digests()


@pytest.mark.parametrize("run,label", sorted(SERVICE_REPORT_BASELINES))
def test_service_report_bytes(run, label, service_digests):
    assert service_digests[(run, label)] == SERVICE_REPORT_BASELINES[(run, label)]


def cache_path_digests() -> dict:
    """Digests of the ``CACHE_PATH_BASELINES`` runs, by key."""
    from repro.api import run_join
    from repro.experiments.exp6_hsm import (
        experiment6_config,
        run_experiment6,
        zipfian_workload,
    )
    from repro.hsm.cache import PartitionCache
    from repro.service.estimators import SimulatedEstimator
    from repro.service.scheduler import JoinService
    from repro.sweep.serialize import stats_to_dict

    scale = ExperimentScale(scale=0.05)
    digests = {}
    for cache_policy in ("lru", "cost"):
        result = run_experiment6(scale=scale, cache_policy=cache_policy)
        digests[("exp6", cache_policy)] = digest(result.to_dict())
    service = JoinService(
        experiment6_config(scale, 125.0, "cost"), estimator=SimulatedEstimator()
    )
    for request in zipfian_workload(12, 0.8, 0):
        service.submit(request)
    for label in ("cold", "warm"):
        digests[("service-cost", label)] = digest(service.run("fifo").to_dict())
    relation_r, relation_s = scale.relations(18.0, 100.0)
    for symbol in ("DT-GH", "CDT-GH"):
        cache = PartitionCache(capacity_blocks=scale.blocks(50.0))
        spec = scale.join_spec(
            relation_r, relation_s,
            memory_blocks=scale.blocks(9.0),
            disk_blocks=scale.blocks(50.0),
            partition_cache=cache,
        )
        runs = []
        for _ in range(2):
            stats = run_join(spec, method=symbol)
            payload = stats_to_dict(stats)
            for name in ("cache_hits", "cache_misses",
                         "cache_saved_blocks", "cache_saved_s"):
                payload[name] = getattr(stats, name)
            runs.append(payload)
        digests[("single-join", symbol)] = digest(
            {"runs": runs, "report": cache.report().to_dict()}
        )
    return digests


@pytest.fixture(scope="module")
def cache_digests():
    return cache_path_digests()


@pytest.mark.parametrize("run,label", sorted(CACHE_PATH_BASELINES))
def test_cache_path_bytes(run, label, cache_digests):
    assert cache_digests[(run, label)] == CACHE_PATH_BASELINES[(run, label)]


@pytest.mark.parametrize("symbol", sorted(TAPE_OPTION_BASELINES))
def test_tape_option_stats_bytes(symbol, small_r, small_s):
    assert tape_option_digest(symbol, small_r, small_s) == TAPE_OPTION_BASELINES[symbol]


@pytest.mark.parametrize("name", ["fig1", "fig2", "fig3"])
def test_analytical_figure_bytes(name):
    from repro.experiments import analytical

    figure = {"fig1": analytical.figure1, "fig2": analytical.figure2,
              "fig3": analytical.figure3}[name]
    assert digest(figure().to_dict()) == BASELINES[name]


def planner_payload(specs) -> list:
    """What ``plan_join`` decides for each spec, as JSON-ready lists."""
    from repro.core.planner import plan_join
    from repro.core.spec import InfeasibleJoinError

    payload = []
    for spec in specs:
        try:
            plan = plan_join(spec)
        except InfeasibleJoinError as exc:
            payload.append({"error": str(exc)})
            continue
        payload.append({
            "chosen": plan.chosen,
            "ranked": [
                [rm.symbol, rm.estimated_s, rm.breakdown.step1_s,
                 rm.breakdown.step2_s, rm.breakdown.iterations, rm.breakdown.r_scans]
                for rm in plan.ranked
            ],
            "rejected": [list(pair) for pair in plan.rejected],
        })
    return payload


def planner_specs(frame, small_r, small_s) -> list:
    from repro.core.spec import JoinSpec
    from repro.experiments.config import (
        DISK_LIGHTNING,
        EXPERIMENT3_D_MB,
        EXPERIMENT3_M_FRACTIONS,
        EXPERIMENT3_R_MB,
        EXPERIMENT3_S_MB,
    )

    if frame == "grid":
        configs = [(10.0, 130.0), (25.0, 130.0), (45.0, 160.0), (10.0, 60.0)]
        return [
            JoinSpec(small_r, small_s, memory_blocks=memory, disk_blocks=disk)
            for memory, disk in configs
        ]
    scale = ExperimentScale(scale=0.03, tuple_bytes=256)
    relation_r, relation_s = scale.relations(EXPERIMENT3_R_MB, EXPERIMENT3_S_MB)
    r_blocks = scale.relation_blocks(EXPERIMENT3_R_MB)
    return [
        JoinSpec(
            relation_r, relation_s, memory_blocks=fraction * r_blocks,
            disk_blocks=scale.blocks(EXPERIMENT3_D_MB), n_disks=scale.n_disks,
            disk_params=DISK_LIGHTNING, tape_params_r=BASE_TAPE,
            tape_params_s=BASE_TAPE,
        )
        for fraction in EXPERIMENT3_M_FRACTIONS
    ]


@pytest.mark.parametrize("frame", sorted(PLANNER_BASELINES))
def test_planner_bytes(frame, small_r, small_s):
    payload = planner_payload(planner_specs(frame, small_r, small_s))
    assert digest({"plans": payload}) == PLANNER_BASELINES[frame]


def test_assumption_checks_bytes():
    from repro.experiments.assumptions import run_assumption_checks

    checks = run_assumption_checks()
    payload = {type(check).__name__: dataclasses.asdict(check) for check in checks}
    assert digest(payload) == BASELINES["assumptions"]


@pytest.fixture(scope="module")
def example_queries():
    """``examples/tape_query.py``'s machine and its queries by Q number."""
    path = pathlib.Path(__file__).resolve().parents[2] / "examples" / "tape_query.py"
    example = runpy.run_path(str(path), run_name="tape_query")
    plans = {title.split(":")[0]: plan for title, plan in example["queries"]()}
    return example["MACHINE"], plans


@pytest.mark.parametrize("name", sorted(QUERY_RECORD))
def test_query_record(name, example_queries):
    """Values, methods, labels and join and scan times are exact; a
    filter pass sums its survivors chunk by chunk, so its seconds may
    move in the last float digit."""
    from repro import query

    machine, plans = example_queries
    result = query.execute(plans[name], machine)
    value, method, passes = QUERY_RECORD[name]
    assert (result.value, result.join_method) == (value, method)
    assert [label for label, _ in result.passes] == [label for label, _ in passes]
    for (label, seconds), (_, expected) in zip(result.passes, passes):
        if label.startswith("filter"):
            assert seconds == pytest.approx(expected, rel=1e-9)
        else:
            assert seconds == expected


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

    @pytest.mark.parametrize("check", sorted(ASSUMPTION_TASK_FINGERPRINTS))
    def test_assumption_task_fingerprint_is_unchanged(self, check):
        from repro.sweep import task_fingerprint
        from repro.sweep.tasks import assumption_task

        task = assumption_task(check)
        fingerprint = task_fingerprint(task.kind, task.payload)
        assert fingerprint == ASSUMPTION_TASK_FINGERPRINTS[check]

    def test_faulted_join_task_fingerprint_is_unchanged(self, scale_8k):
        from repro.faults.plan import FaultPlan
        from repro.faults.policy import RetryPolicy
        from repro.sweep import task_fingerprint
        from repro.sweep.tasks import join_task

        task = join_task(
            "CTT-GH", 500.0, 1000.0, memory_blocks=100.0, disk_blocks=120.0,
            tape=BASE_TAPE, disk_params=DISK_1996, scale=scale_8k,
            fault_plan=FaultPlan.uniform(0.002, seed=3),
            retry_policy=RetryPolicy(max_retries=2),
        )
        fingerprint = task_fingerprint(task.kind, task.payload)
        assert fingerprint == FAULTED_JOIN_TASK_FINGERPRINT

    def test_cached_service_task_fingerprint_is_unchanged(self, scale_2k):
        from repro.experiments.exp5_service import service_workload
        from repro.hsm.cache import CacheConfig
        from repro.service.requests import ServiceConfig
        from repro.sweep import task_fingerprint
        from repro.sweep.tasks import service_task

        config = ServiceConfig(
            scale=scale_2k, cache=CacheConfig(capacity_mb=200.0, policy="cost")
        )
        task = service_task("fifo", service_workload(4), config)
        fingerprint = task_fingerprint(task.kind, task.payload)
        assert fingerprint == CACHED_SERVICE_TASK_FINGERPRINT

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
