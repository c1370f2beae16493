"""Runtime environment for one simulated tertiary join.

Builds the simulator and storage hierarchy for a :class:`JoinSpec`, places
the relations on their tape volumes (pre-loaded into the drives, as the
paper assumes), and collects the statistics that become a
:class:`JoinStats` when the join finishes.  A join can also run on a
caller's storage, from tape files already mounted there.
"""

from __future__ import annotations

from repro.buffering.memory import MemoryManager
from repro.core.spec import JoinSpec, JoinStats
from repro.costmodel.parameters import SystemParameters
from repro.faults.checkpoint import JoinCheckpoint
from repro.faults.injector import FaultInjector
from repro.hsm.cache import PartitionSetKey
from repro.obs.recorder import JoinObserver
from repro.relational.hashing import BucketIndex
from repro.relational.join_core import BuildSide, JoinAccumulator
from repro.simulator.engine import Simulator
from repro.storage.hierarchy import StorageConfig, StorageSystem
from repro.storage.tape import TapeFile, TapeVolume


def storage_config(spec: JoinSpec) -> StorageConfig:
    """The devices a join of ``spec`` runs on, with D as the disk space."""
    # Iteration boundaries are tuple-aligned, but rounding at chunk
    # boundaries can shift a tuple between adjacent iterations; a
    # two-tuple slack on D absorbs that without materially relaxing
    # the budget.
    slack = 2.0 / min(
        spec.relation_r.tuples_per_block, spec.relation_s.tuples_per_block
    )
    return StorageConfig(
        spec=spec.block_spec,
        n_disks=spec.n_disks,
        disk_capacity_blocks=spec.disk_blocks + slack + 1e-6,
        disk_params=spec.disk_params,
        tape_params_r=spec.tape_params_r,
        tape_params_s=spec.tape_params_s,
        n_buses=spec.n_buses,
        bus_bandwidth_mb_s=spec.bus_bandwidth_mb_s,
    )


class JoinEnvironment:
    """Simulator, devices, relation placement and counters for one join.

    Given a caller's ``storage`` and the files ``file_r`` and ``file_s``
    mounted on its two drives, the join runs there from the clock t at
    which the environment is built, and its times, spans and device
    traffic count from t.  Given only ``spec``, it builds its own.
    """

    def __init__(self, spec: JoinSpec, storage: StorageSystem | None = None,
                 file_r: TapeFile | None = None, file_s: TapeFile | None = None):
        self.spec = spec
        #: The join's Table 1 quantities (rates, optimum and bare read times).
        self.params = SystemParameters.from_spec(spec)
        if storage is None:
            storage = StorageSystem(Simulator(), storage_config(spec))
            vol_r = TapeVolume(
                "vol_r", spec.size_r_blocks + spec.effective_scratch_r(), requirement="T_R"
            )
            file_r = vol_r.record("R", spec.relation_r.as_chunk())
            storage.drive_r.load(vol_r)
            vol_s = TapeVolume(
                "vol_s", spec.size_s_blocks + spec.effective_scratch_s(), requirement="T_S"
            )
            file_s = vol_s.record("S", spec.relation_s.as_chunk())
            storage.drive_s.load(vol_s)
        self.storage, self.sim, self.array = storage, storage.sim, storage.array
        self.file_r, self.file_s = file_r, file_s
        #: The tape drives holding R's and S's volumes.
        holders = {drive.volume: drive for drive in (storage.drive_r, storage.drive_s)}
        self.drive_r, self.drive_s = holders.get(file_r.volume), holders.get(file_s.volume)
        if None in (self.drive_r, self.drive_s) or self.drive_r is self.drive_s:
            raise ValueError("R and S must be mounted on two different drives")
        self._data_end_r = file_r.volume.end_block
        self._data_end_s = file_s.volume.end_block
        self.observer = JoinObserver() if spec.trace_devices else None
        self.memory = MemoryManager(spec.memory_blocks)
        self.accumulator = JoinAccumulator()
        # The injector is installed whenever a plan is present — even one
        # with all rates zero — so rate-0 parity runs genuinely exercise
        # the guarded device paths.
        self.faults = None
        self.checkpoint = JoinCheckpoint()
        if spec.fault_plan is not None:
            self.faults = FaultInjector(self.sim, spec.fault_plan, spec.retry_policy)
            self.storage.install_faults(self.faults)
        if self.observer is not None:
            self.storage.install_observer(self.observer)
            self.memory.on_change = self._record_memory
            if self.faults is not None:
                self.faults.observer = self.observer

        #: The clock t when the join starts.
        self.start_s = self.sim.now
        self._traffic_at_start = self._traffic()
        self.step1_end_s = self.start_s
        self.iterations = 0
        self.r_scans = 0.0
        self.overflow_buckets = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_saved_blocks = 0.0
        self.cache_saved_s = 0.0
        # Data-plane program counters (see JoinStats.builds).
        self.builds = 0
        self.probes = 0
        self.probed_keys = 0
        # Partition sets pinned on behalf of this join; released when the
        # join finalizes, so the cache never evicts in-flight buckets.
        self._cache_pins = []
        # (relation, n_buckets) -> BucketIndex, built on first use.
        self._bucket_indexes: dict = {}

    # -- bookkeeping ----------------------------------------------------------------

    def _traffic(self) -> dict:
        """The storage's running device counters, as :class:`JoinStats` fields."""
        array, r, s = self.array, self.drive_r, self.drive_s
        return dict(
            disk_read_blocks=array.read_blocks,
            disk_write_blocks=array.write_blocks,
            tape_r_read_blocks=r.read_blocks,
            tape_r_write_blocks=r.write_blocks,
            tape_s_read_blocks=s.read_blocks,
            tape_s_write_blocks=s.write_blocks,
            tape_repositions=r.repositions + s.repositions,
            chunks_placed=array.chunks_placed,
        )

    def _record_memory(self, used_blocks: float) -> None:
        """Sample the memory ledger into the observer's memory series."""
        self.observer.timeseries("memory.used_blocks").record(
            self.sim.now, used_blocks
        )

    def mark_step1_done(self) -> None:
        """Record the end of the method's setup phase (Step I)."""
        self.step1_end_s = self.sim.now
        if self.faults is not None:
            self.faults.mark_step1()

    def count_iteration(self) -> int:
        """Record one Step II iteration; returns its index."""
        index = self.iterations
        self.iterations += 1
        return index

    def count_r_scan(self, fraction: float = 1.0) -> None:
        """Record (a fraction of) one full pass over relation R."""
        self.r_scans += fraction

    def count_overflow_bucket(self) -> None:
        """Record one hash bucket processed via the spill (overflow) path."""
        self.overflow_buckets += 1

    # -- data plane -------------------------------------------------------------------

    def build(self, keys) -> BuildSide:
        """Group held keys into a :class:`BuildSide`, counting the build."""
        self.builds += 1
        return BuildSide(keys)

    def bucket_index(self, relation, n_buckets: int) -> BucketIndex:
        """``relation``'s keys grouped into ``n_buckets`` hash buckets.

        Built once per relation and bucket count, on first use, and kept
        until the join is dropped: every scan that hashes the relation
        (Step I, each Step II iteration, each hash-to-tape group scan)
        looks its buckets up here, and the flushed bucket chunks are
        views into it.
        """
        key = (relation, n_buckets)
        index = self._bucket_indexes.get(key)
        if index is None:
            index = self._bucket_indexes[key] = BucketIndex(relation.keys, n_buckets)
        return index

    def probe(self, held: BuildSide, keys) -> None:
        """Probe ``keys`` against ``held`` and fold the result into the
        join's accumulator, counting the probe and its keys."""
        self.probes += 1
        self.probed_keys += len(keys)
        self.accumulator.add(held.probe(keys))

    # -- partition cache (repro.hsm) ------------------------------------------------

    def cached_r_partition(self, n_buckets: int) -> list | None:
        """Step I shortcut: install R's cached partition, if resident.

        Returns the B bucket extents on a hit — in zero simulated time,
        via :meth:`~repro.storage.disk_array.DiskArray.install`, since
        the content is already disk-resident — or None on a miss (or
        with no cache attached).  A hit pins the set until the join
        finalizes, so the cache cannot evict in-flight buckets.
        """
        cache = self.spec.partition_cache
        if cache is None:
            return None
        key = PartitionSetKey.for_relation(self.spec.relation_r, n_buckets)
        cached = cache.lookup(key)
        if cached is None:
            self.cache_misses += 1
            if self.observer is not None:
                self.observer.count("cache.miss")
            return None
        self._cache_pins.append(key)
        buckets = []
        for index, (_blocks, data) in enumerate(cached):
            extent = self.array.allocate(f"R.b{index}")
            if data is not None and data.n_tuples > 0:
                self.array.install(extent, data)
            buckets.append(extent)
        self.cache_hits += 1
        self.cache_saved_blocks += self.spec.size_r_blocks
        self.cache_saved_s += self.spec.size_r_blocks / self.params.rate_tape_r
        if self.observer is not None:
            self.observer.count("cache.hit")
            self.observer.span(
                "cache hit: R partition", self.sim.now, self.sim.now, cat="cache"
            )
        self.mark_step1_done()
        return buckets

    def offer_r_partition(self, n_buckets: int, r_buckets: list) -> None:
        """Populate the cache with Step I's freshly written partition.

        The admitted set is valued at the tape-read time a future hit
        saves and pinned until this join finalizes: the extents it
        mirrors are still being read by Step II, so they must not be
        eviction candidates while the join is in flight.
        """
        cache = self.spec.partition_cache
        if cache is None:
            return
        key = PartitionSetKey.for_relation(self.spec.relation_r, n_buckets)
        admitted = cache.admit(
            key,
            [(extent.n_blocks, extent.peek_all()) for extent in r_buckets],
            value_s=self.spec.size_r_blocks / self.params.rate_tape_r,
        )
        if admitted:
            cache.pin(key)
            self._cache_pins.append(key)
            if self.observer is not None:
                self.observer.count("cache.admit")

    def finalize(self, method_name: str, method_symbol: str) -> JoinStats:
        """Snapshot all counters into a :class:`JoinStats`."""
        spec = self.spec
        vol_r, vol_s = self.file_r.volume, self.file_s.volume
        start, step1_end = self.start_s, self.step1_end_s
        response, step1 = self.sim.now - start, step1_end - start
        start_traffic = self._traffic_at_start
        traffic = {name: n - start_traffic[name] for name, n in self._traffic().items()}
        if spec.partition_cache is not None:
            for key in self._cache_pins:
                spec.partition_cache.unpin(key)
            self._cache_pins.clear()
        obs_summary = None
        if self.observer is not None:
            from repro.obs.metrics import summarize

            self.observer.span("Step I", start, step1_end, "step")
            self.observer.span("Step II", step1_end, self.sim.now, "step")
            obs_summary = summarize(self.observer, response, step1, start_s=start)
        return JoinStats(
            method=method_name,
            symbol=method_symbol,
            response_s=response,
            step1_s=step1,
            step2_s=response - step1,
            iterations=self.iterations,
            r_scans=self.r_scans,
            overflow_buckets=self.overflow_buckets,
            output=self.accumulator.result(),
            peak_memory_blocks=self.memory.peak_used_blocks,
            peak_disk_blocks=self.array.peak_used_blocks,
            scratch_used_r_blocks=vol_r.written_after(self._data_end_r),
            scratch_used_s_blocks=vol_s.written_after(self._data_end_s),
            optimum_join_s=self.params.optimum_join_s,
            bare_read_s=self.params.bare_read_s,
            fault_events=self.faults.stats.events if self.faults else 0,
            fault_retries=self.faults.stats.retries if self.faults else 0,
            fault_recovery_s=self.faults.stats.recovery_s if self.faults else 0.0,
            fault_delay_s=self.faults.stats.delay_s if self.faults else 0.0,
            bucket_restarts=self.checkpoint.restarts,
            restart_lost_s=self.checkpoint.lost_s,
            cache_hits=self.cache_hits,
            cache_misses=self.cache_misses,
            cache_saved_blocks=self.cache_saved_blocks,
            cache_saved_s=self.cache_saved_s,
            builds=self.builds,
            probes=self.probes,
            probed_keys=self.probed_keys,
            obs_summary=obs_summary,
            observer=self.observer,
            **traffic,
        )
