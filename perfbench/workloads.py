"""The four benchmark workloads.

Each workload is a closed loop with one client: a pass runs its
operations one after another in this process (``jobs=1``), and the next
pass starts when the last one ends.  An operation is one simulated join
point, one service run or one CLI invocation.  ``setup(seed)`` builds
every input from the seed; ``run_pass()`` only drives the system through
its public entry points and checks each result against a reference made
during set-up.  Why each workload exists is in this directory's README.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import math
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import typing

from repro import api
from repro.core.base import TertiaryJoinMethod
from repro.core.registry import ALL_METHODS, method_by_symbol
from repro.core.spec import InfeasibleJoinError, JoinSpec, JoinStats
from repro.costmodel import SystemParameters
from repro.experiments import __main__ as experiments_cli
from repro.experiments.config import (
    BASE_TAPE,
    DISK_1996,
    DISK_LIGHTNING,
    EXPERIMENT2_R_MB,
    EXPERIMENT2_S_MB,
    EXPERIMENT3_D_MB,
    EXPERIMENT3_R_MB,
    EXPERIMENT3_S_MB,
    ExperimentScale,
)
from repro.experiments.exp6_hsm import experiment6_config, zipfian_workload
from repro.relational.join_core import reference_join
from repro.service.estimators import SimulatedEstimator
from repro.service.scheduler import JoinService
from repro.sweep.fingerprint import canonical_json
from repro.sweep.serialize import stats_to_dict

from probes import Patcher


@dataclasses.dataclass
class Op:
    """One timed operation and its correctness verdict."""

    label: str
    seconds: float
    failure: str | None = None  # None when the output checked out
    rss_mb: float | None = None  # peak RSS of a child process, if any


@dataclasses.dataclass
class PassResult:
    """Everything one pass produced."""

    wall_s: float
    ops: list[Op]
    #: Serialized simulated results in operation order (for ``sim_digest``).
    sim: list
    #: (symbol, SystemParameters, simulated response seconds) of every
    #: join simulated; the parameters, unlike the spec, hold no relation.
    joins: list = dataclasses.field(default_factory=list)
    #: Workload-specific simulated outputs (planner quality, service stats).
    extra: dict = dataclasses.field(default_factory=dict)
    #: Speed gauge read after every op (``run.SpeedGauge``), or None.
    gauge: typing.Any = None
    #: The gauge's scale for each op, and the seconds spent reading it,
    #: which are kept out of ``wall_s``.
    factors: list = dataclasses.field(default_factory=list)
    gauge_s: float = 0.0

    def add(self, op: Op) -> None:
        """Record an op, then read the gauge."""
        self.ops.append(op)
        if self.gauge is not None:
            started = time.perf_counter()
            self.factors.append(self.gauge.factor())
            self.gauge_s += time.perf_counter() - started

    def speed_factor(self) -> float:
        """Scale from this pass's host seconds to the reference speed."""
        return statistics.median(self.factors) if self.factors else 1.0

    def scaled_op_s(self, index: int) -> float:
        """An op's seconds at the reference speed, by the gauge around it."""
        return self.ops[index].seconds * (self.factors[index] if self.factors else 1.0)

    def sim_digest(self) -> str:
        return hashlib.sha256(canonical_json(self.sim).encode("utf-8")).hexdigest()


def _table2_fits(method, spec: JoinSpec) -> bool:
    """Table 2's prediction: does ``method`` fit ``spec``'s budgets?"""
    return method.requirements(spec).fits(
        spec.memory_blocks,
        spec.disk_blocks,
        spec.effective_scratch_r(),
        spec.effective_scratch_s(),
    )


def _join_failure(stats, expected, fits: bool) -> str | None:
    """The correctness gate for one join point (None means correct)."""
    if stats is None:
        return "infeasible although Table 2 says it fits" if fits else None
    if not fits:
        return "ran although Table 2 says it cannot fit"
    got = (stats.output.n_pairs, stats.output.checksum)
    if got != (expected.n_pairs, expected.checksum):
        return f"output {got} differs from the reference {expected}"
    return None


@dataclasses.dataclass
class JoinPoint:
    """One (method, spec) operation with its expected outcome."""

    label: str
    method: typing.Any
    spec: JoinSpec
    fits: bool


def _run_point(point: JoinPoint, expected, result: PassResult) -> JoinStats | None:
    """Run one join point, appending its op, sim record and join entry."""
    started = time.perf_counter()
    stats = None
    failure = None
    try:
        stats = api.run_join(point.spec, method=point.method.symbol)
    except InfeasibleJoinError:
        pass
    except Exception as exc:  # one broken point is a counted failure, not an abort
        failure = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - started
    if failure is None:
        failure = _join_failure(stats, expected, point.fits)
    result.add(Op(point.label, seconds, failure))
    if stats is None:
        result.sim.append({"point": point.label, "infeasible": True})
        return None
    result.sim.append({"point": point.label, "stats": stats_to_dict(stats)})
    result.joins.append(
        (point.method.symbol, SystemParameters.from_spec(point.spec), stats.response_s)
    )
    return stats


class Workload:
    """Interface shared by the four workloads."""

    name = ""
    scale = 0.0
    #: True when each operation runs in a child process: its peak RSS is
    #: the child's, and this process's speed gauge does not apply to it.
    runs_in_child = False

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def run_pass(self, gauge=None) -> PassResult:
        """One pass; ``gauge`` is read after every op (see ``PassResult.add``)."""
        raise NotImplementedError

    def inprocess_pass(self) -> PassResult:
        """A pass run inside this process, for the traced and profiled runs."""
        return self.run_pass()

    def warm_up(self) -> None:
        """Pay first-use costs (lazy imports, first allocations) untimed.

        Without it the first pass runs a fifth to two fifths slower than
        the rest, and with three passes that skews the median.
        """
        self.run_pass()

    def close(self) -> None:
        """Release whatever set-up left behind."""


def _timed_pass(body: typing.Callable[[PassResult], None], gauge=None) -> PassResult:
    result = PassResult(0.0, [], [], gauge=gauge)
    started = time.perf_counter()
    body(result)
    result.wall_s = time.perf_counter() - started - result.gauge_s
    return result


def _warm_up_points(points, reference) -> None:
    """Run one fitting point per method: enough to warm every code path."""
    seen = set()
    for point in points:
        if point.fits and point.method.symbol not in seen:
            seen.add(point.method.symbol)
            _run_point(point, reference, PassResult(0.0, [], []))


#: Four of Figure 5's D points: D=|R|, where Table 2 rules CDT-GH out;
#: D=1.25|R|, where it rescans R most; and the flatter 2 and 3|R|.
FIG5_D_FRACTIONS = (1.0, 1.25, 2.0, 3.0)
#: Five of Experiment 3's nine M points, spanning the same range.
EXP3_M_FRACTIONS = (0.1, 0.3, 0.5, 0.7, 0.9)


class Fig5Rescan(Workload):
    """Figure 5: CDT-GH and CTT-GH over D, sparse keys, no sweep cache."""

    name = "fig5-rescan"

    def __init__(self, scale: float = 0.05, d_fractions=FIG5_D_FRACTIONS):
        self.scale = scale
        self.d_fractions = tuple(d_fractions)

    def setup(self, seed: int) -> None:
        scale = ExperimentScale(scale=self.scale, tuple_bytes=8192, seed=seed)
        relation_r, relation_s = scale.relations(EXPERIMENT2_R_MB, EXPERIMENT2_S_MB)
        self.reference = reference_join(relation_r, relation_s)
        r_blocks = scale.relation_blocks(EXPERIMENT2_R_MB)
        # M = 0.1|R| clamped to Grace Hash's sqrt(|R|) floor, as exp2 does.
        memory = max(0.1 * r_blocks, 1.05 * math.sqrt(r_blocks))
        self.points = []
        for fraction in self.d_fractions:
            for symbol in ("CDT-GH", "CTT-GH"):
                method = method_by_symbol(symbol)
                spec = JoinSpec(
                    relation_r, relation_s,
                    memory_blocks=memory, disk_blocks=r_blocks * fraction,
                    n_disks=scale.n_disks, disk_params=DISK_1996,
                    tape_params_r=BASE_TAPE, tape_params_s=BASE_TAPE,
                )
                label = f"{symbol} D={fraction:g}|R|"
                self.points.append(JoinPoint(label, method, spec, _table2_fits(method, spec)))

    def run_pass(self, gauge=None) -> PassResult:
        def body(result: PassResult) -> None:
            for point in self.points:
                _run_point(point, self.reference, result)

        return _timed_pass(body, gauge)

    def warm_up(self) -> None:
        _warm_up_points(self.points, self.reference)


class Exp3Dense(Workload):
    """Experiment 3: all seven methods plus the planner over M, dense keys."""

    name = "exp3-dense"

    def __init__(self, scale: float = 0.03, m_fractions=EXP3_M_FRACTIONS):
        self.scale = scale
        self.m_fractions = tuple(m_fractions)

    def setup(self, seed: int) -> None:
        scale = ExperimentScale(scale=self.scale, tuple_bytes=256, seed=seed)
        relation_r, relation_s = scale.relations(EXPERIMENT3_R_MB, EXPERIMENT3_S_MB)
        self.reference = reference_join(relation_r, relation_s)
        r_blocks = scale.relation_blocks(EXPERIMENT3_R_MB)
        self.frames = []
        for fraction in self.m_fractions:
            spec = JoinSpec(
                relation_r, relation_s,
                memory_blocks=fraction * r_blocks,
                disk_blocks=scale.blocks(EXPERIMENT3_D_MB),
                n_disks=scale.n_disks, disk_params=DISK_LIGHTNING,
                tape_params_r=BASE_TAPE, tape_params_s=BASE_TAPE,
            )
            points = [
                JoinPoint(f"{m.symbol} M={fraction:g}|R|", m, spec, _table2_fits(m, spec))
                for m in ALL_METHODS
            ]
            self.frames.append((fraction, spec, points))

    def run_pass(self, gauge=None) -> PassResult:
        def body(result: PassResult) -> None:
            regrets, planned_s, picks = [], 0.0, []
            for fraction, spec, points in self.frames:
                try:
                    chosen = api.plan(spec).chosen
                except InfeasibleJoinError:
                    chosen = None
                simulated = {}
                for point in points:
                    stats = _run_point(point, self.reference, result)
                    if stats is not None:
                        simulated[point.method.symbol] = stats.response_s
                picks.append((fraction, chosen))
                if chosen is None:
                    continue
                if chosen not in simulated:
                    result.ops[-1].failure = f"planner picked {chosen}, which did not run"
                    continue
                regrets.append(simulated[chosen] / min(simulated.values()) - 1.0)
                planned_s += simulated[chosen]
            result.extra = {
                "planner_regret_pct": 100.0 * sum(regrets) / len(regrets) if regrets else 0.0,
                "planned_sim_s": planned_s,
                "planner_picks": picks,
            }
            result.sim.append({"planner": result.extra})

        return _timed_pass(body, gauge)

    def warm_up(self) -> None:
        _warm_up_points([p for _, _, points in self.frames for p in points], self.reference)


@contextlib.contextmanager
def _recorded_joins(sink: list):
    """Collect (spec, stats) of every join run inside the block.

    The service simulates its jobs inside its estimator and reports only
    schedules, so the join outputs are read at the method boundary.
    """
    original = TertiaryJoinMethod.run

    def run(self, spec):
        stats = original(self, spec)
        sink.append((self.symbol, spec, stats))
        return stats

    patcher = Patcher()
    patcher.swap(TertiaryJoinMethod, "run", run)
    try:
        yield sink
    finally:
        patcher.restore()


class HsmService(Workload):
    """A Zipfian multi-join workload through one cache-aware JoinService."""

    name = "hsm-service"
    #: LRU cache well below the 416 MB dimension working set, so the cold
    #: run both admits and evicts.
    CACHE_MB = 200.0
    #: The job draw is fixed; the seed drives the relations' keys.  A
    #: seeded draw changes which dimensions repeat, and with it a pass's
    #: work by a quarter, which would drown any host-speed change.
    DRAW_SEED = 0

    def __init__(self, scale: float = 0.3, n_jobs: int = 12, skew: float = 0.8):
        self.scale = scale
        self.n_jobs = n_jobs
        self.skew = skew

    def setup(self, seed: int) -> None:
        scale = ExperimentScale(scale=self.scale, seed=seed)
        self.config = experiment6_config(scale, self.CACHE_MB, "lru")
        self.requests = zipfian_workload(self.n_jobs, self.skew, self.DRAW_SEED)
        self.reference = {}
        for request in self.requests:
            relation_r, relation_s = scale.relations(request.r_mb, request.s_mb)
            key = (relation_r.n_tuples, relation_s.n_tuples)
            self.reference[key] = reference_join(relation_r, relation_s)

    def _check_run(self, report, joined) -> str | None:
        rejected = [o.name for o in report.outcomes if o.status != "completed"]
        if rejected:
            return f"jobs rejected: {rejected}"
        for symbol, spec, stats in joined:
            key = (spec.relation_r.n_tuples, spec.relation_s.n_tuples)
            expected = self.reference.get(key)
            if expected is None:
                return f"{symbol} joined relations the workload never asked for"
            failure = _join_failure(stats, expected, fits=True)
            if failure:
                return f"{symbol}: {failure}"
        return None

    def run_pass(self, gauge=None) -> PassResult:
        def body(result: PassResult) -> None:
            service = JoinService(self.config, estimator=SimulatedEstimator())
            for request in self.requests:
                service.submit(request)
            reports = []
            for label in ("cold", "warm"):
                joined: list = []
                started = time.perf_counter()
                with _recorded_joins(joined):
                    report = service.run("fifo")
                seconds = time.perf_counter() - started
                result.add(Op(f"service {label} run", seconds, self._check_run(report, joined)))
                result.sim.append(report.to_dict())
                result.joins.extend(
                    (s, SystemParameters.from_spec(spec), st.response_s)
                    for s, spec, st in joined
                )
                reports.append(report)
            cold, warm = reports
            hits = sum(r.cache.hits for r in reports)
            lookups = hits + sum(r.cache.misses for r in reports)
            result.extra = {
                "service.makespan_s": cold.makespan_s,
                "service.mean_latency_s": cold.mean_latency_s,
                "service.exchanges": cold.exchanges + warm.exchanges,
                "hsm.hit_ratio": hits / lookups if lookups else 0.0,
                "hsm.evictions": sum(r.cache.evictions for r in reports),
                "hsm.tape_mb_avoided": sum(r.cache.tape_mb_avoided for r in reports),
            }

        return _timed_pass(body, gauge)


#: ``python -m repro.experiments`` plus a report of the child's own peak
#: RSS on stderr.  The kernel's per-process peak (``ru_maxrss``) would
#: also count the parent's pages the child held between fork and exec.
_CLI_REPORTING_PEAK_RSS = """\
import runpy, sys
try:
    runpy.run_module("repro.experiments", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as status:
        sys.stderr.write(next(line for line in status if line.startswith("VmHWM:")))
"""


class WarmCli(Workload):
    """``python -m repro.experiments fig5 exp3 --json`` on a warm sweep cache."""

    name = "warm-cli"
    runs_in_child = True
    TAPES = ("slow", "base", "fast")

    def __init__(self, root: pathlib.Path, workdir: pathlib.Path, scale: float = 0.01):
        self.root = root
        self.workdir = workdir
        self.scale = scale
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in self.env.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        self.dir: pathlib.Path | None = None

    def _argv(self, json_path: pathlib.Path) -> list[str]:
        return [
            "fig5", "exp3", "--scale", repr(self.scale), "--tape", self.tape,
            "--json", str(json_path), "--cache-dir", str(self.dir / "cache"),
        ]

    def _invoke(self, json_path: pathlib.Path) -> tuple[int, float, float]:
        """Run the CLI as a child; (exit code, seconds, child peak RSS MB)."""
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", _CLI_REPORTING_PEAK_RSS, *self._argv(json_path)],
            cwd=self.root, env=self.env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=120,
        )
        seconds = time.perf_counter() - started
        peak_kb = [line.split()[1] for line in done.stderr.splitlines() if line.startswith("VmHWM:")]
        return done.returncode, seconds, int(peak_kb[-1]) / 1024.0 if peak_kb else 0.0

    def setup(self, seed: int) -> None:
        """Fill a fresh sweep cache with a cold run; keep its artifact."""
        self.close()
        self.tape = self.TAPES[seed % len(self.TAPES)]
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.dir = pathlib.Path(tempfile.mkdtemp(prefix="warm-cli-", dir=self.workdir))
        cold = self.dir / "cold.json"
        code, _, _ = self._invoke(cold)
        if code != 0 or not cold.exists():
            raise RuntimeError(f"cold CLI run exited with {code}")
        self.cold_bytes = cold.read_bytes()

    def _check(self, code: int, warm: pathlib.Path) -> str | None:
        if code != 0:
            return f"CLI exited with {code}"
        if not warm.exists() or warm.read_bytes() != self.cold_bytes:
            return "warm artifact differs from the cold artifact"
        return None

    def _pass(self, invoke, gauge=None) -> PassResult:
        warm = self.dir / "warm.json"

        def body(result: PassResult) -> None:
            warm.unlink(missing_ok=True)
            code, seconds, rss_mb = invoke(warm)
            result.add(Op("cli warm run", seconds, self._check(code, warm), rss_mb))
            result.sim.append(hashlib.sha256(warm.read_bytes()).hexdigest() if warm.exists() else None)

        return _timed_pass(body, gauge)

    def run_pass(self, gauge=None) -> PassResult:
        return self._pass(self._invoke, gauge)

    def inprocess_pass(self) -> PassResult:
        def invoke(warm: pathlib.Path):
            started = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = experiments_cli.main(self._argv(warm))
            return code, time.perf_counter() - started, None

        return self._pass(invoke)

    def close(self) -> None:
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)
            self.dir = None


def build(name: str, root: pathlib.Path, workdir: pathlib.Path) -> Workload:
    """The workload called ``name`` at its benchmark scale."""
    if name == WarmCli.name:
        return WarmCli(root, workdir)
    for cls in (Fig5Rescan, Exp3Dense, HsmService):
        if cls.name == name:
            return cls()
    raise KeyError(name)


#: Workload names, in the order BENCHMARK.json lists them.
NAMES = (Fig5Rescan.name, Exp3Dense.name, HsmService.name, WarmCli.name)
