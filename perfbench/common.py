"""Helpers shared by every workload: the contract file, statistics, spans.

Nothing here imports ``repro``: the helpers are unit-tested on their own
(``python3 -m pytest perfbench``) and the load generator imports the
program only once it has checked that the source tree is present.
"""

from __future__ import annotations

import json
import math
import os
import platform
import re
import statistics
import subprocess
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
SRC = ROOT / "src"
#: Scratch space for artifacts, caches and trace output; inside the checkout.
WORK = ROOT / ".perfbench"

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}


class BenchError(Exception):
    """The benchmark cannot run or its inputs break the contract."""


# --------------------------------------------------------------------- #
# The contract file
# --------------------------------------------------------------------- #
def load_spec(path: Path = SPEC_PATH) -> dict:
    """Read and validate ``BENCHMARK.json``."""
    try:
        spec = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc
    check_spec(spec)
    return spec


def check_spec(spec: dict) -> None:
    """Raise :class:`BenchError` unless ``spec`` has the contract's shape."""
    if set(spec) != SPEC_KEYS:
        raise BenchError(f"spec keys {sorted(spec)} != {sorted(SPEC_KEYS)}")
    names: List[str] = []
    for workload in spec["workloads"]:
        if set(workload) != {"name", "why"}:
            raise BenchError(f"workload {workload} needs exactly name and why")
        names.append(workload["name"])
    for group, keys in (
        ("end_to_end", {"name", "unit", "better", "bound"}),
        ("per_layer", {"name", "unit", "better"}),
    ):
        for metric in spec[group]:
            if set(metric) != keys:
                raise BenchError(f"{group} metric {metric} needs keys {sorted(keys)}")
            if not UNIT_RE.match(metric["unit"]):
                raise BenchError(f"bad unit {metric['unit']!r}")
            if metric["better"] not in ("lower", "higher"):
                raise BenchError(f"bad 'better' in {metric}")
            if group == "end_to_end" and not 0 < metric["bound"] <= 0.25:
                raise BenchError(f"bound of {metric['name']} outside (0, 0.25]")
            names.append(metric["name"])
    for name in names:
        if not NAME_RE.match(name):
            raise BenchError(f"bad name {name!r}")
    duplicates = [n for n, c in Counter(names).items() if c > 1]
    if duplicates:
        raise BenchError(f"names used twice: {duplicates}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        raise BenchError("end_to_end needs setup_s in s, better lower")
    if not 2 <= len(spec["workloads"]) <= 8:
        raise BenchError("need 2 to 8 workloads")


def workload_names(spec: dict) -> List[str]:
    return [w["name"] for w in spec["workloads"]]


def check_metrics(spec: dict, trace: bool, metrics: Dict[str, dict]) -> None:
    """The reported metrics must be exactly the declared group, with units."""
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(metrics) != set(declared):
        missing = sorted(set(declared) - set(metrics))
        extra = sorted(set(metrics) - set(declared))
        raise BenchError(f"metric names differ: missing {missing}, undeclared {extra}")
    for name, entry in metrics.items():
        if entry["unit"] != declared[name]:
            raise BenchError(f"{name}: unit {entry['unit']!r} != {declared[name]!r}")
        value = entry["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise BenchError(f"{name}: value {value!r} is not a finite number")
        if not trace and value == 0:
            raise BenchError(f"end-to-end metric {name} measured 0")


def metric_block(spec: dict, trace: bool, values: Dict[str, float]) -> Dict[str, dict]:
    """Attach the declared unit to each measured value."""
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    return {name: {"value": values[name], "unit": units[name]} for name in units if name in values}


# --------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------- #
def highest_supported_percentile(count: int, beyond: int = 10) -> Optional[float]:
    """Highest percentile with at least ``beyond`` of ``count`` samples above it.

    ``None`` when there are too few samples for any percentile to leave
    ``beyond`` samples above it (``count <= beyond``).
    """
    if count <= beyond:
        return None
    return 100.0 * (1.0 - beyond / count)


def percentile(values: Iterable[float], pct: float) -> float:
    """Linear-interpolation percentile (numpy's default) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError("percentile of no samples")
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


#: Ops per block: p99 of a block leaves ten ops beyond it.
BLOCK_OPS = 1000


def op_summary(ops: List[tuple]) -> dict:
    """Latency and throughput of ``(start, end, samples)`` ops.

    ``mean_ms`` is the mean op time.  The ops, in start order, are cut into
    consecutive blocks of at least ``BLOCK_OPS`` ops (one block when there
    are fewer); ``p99_ms`` and ``samples_per_s`` are medians over blocks,
    so a burst of host noise that spoils one block does not move them.  A
    block's throughput is its samples over the time from its first start to
    its last end.  ``p50_ms`` is reported for reading, not bounded: see the
    benchmark's README for why the median is too unsteady on ``stream_ecg``.
    """
    if not ops:
        raise BenchError("no ops to summarize")
    ops = sorted(ops)
    count = max(1, len(ops) // BLOCK_OPS)
    size, extra = divmod(len(ops), count)
    p99, rate = [], []
    start = 0
    for index in range(count):
        block = ops[start:start + size + (1 if index < extra else 0)]
        start += len(block)
        p99.append(percentile([end - begin for begin, end, _ in block], 99.0) * 1e3)
        span = max(end for _, end, _ in block) - block[0][0]
        rate.append(sum(samples for _, _, samples in block) / span)
    latencies = [end - begin for begin, end, _ in ops]
    return {
        "ops": len(ops),
        "blocks": count,
        "mean_ms": statistics.fmean(latencies) * 1e3,
        "p50_ms": percentile(latencies, 50.0) * 1e3,
        "p99_ms": statistics.median(p99),
        "samples_per_s": statistics.median(rate),
        "highest_supported_pct": highest_supported_percentile(len(ops) // count),
    }


def spread(values: List[float]) -> dict:
    """Median, quartiles and IQR/median, as the acceptance check computes them."""
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    scale = abs(median) if median else 1.0
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / scale,
        "range_share": (max(values) - min(values)) / scale,
    }


class FailLedger:
    """Counts attempted and failed ops; a failure is never dropped.

    ``fail_frac`` is failed over attempted.  Reasons are counted so a
    failing run says why.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter = Counter()

    def record(self, ok: bool, reason: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons[reason or "failed"] += 1

    def merge(self, other: "FailLedger") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.reasons.update(other.reasons)

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def residual_us(round_trip_us: float, layers_us: Dict[str, float]) -> float:
    """Client round trip minus every attributed layer (may be negative)."""
    return round_trip_us - sum(layers_us.values())


# --------------------------------------------------------------------- #
# Spans
# --------------------------------------------------------------------- #
class Tracer:
    """In-memory span recorder; written out once, when the run ends.

    A span is ``(id, name, start, end, parent, op)``.  Self time is a
    span's duration minus the durations of its children: replayed layer
    spans run after the op they decompose, so parenthood is by id, not by
    interval containment.
    """

    def __init__(self) -> None:
        self.spans: List[dict] = []

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None, op: Optional[int] = None) -> int:
        span_id = len(self.spans)
        self.spans.append({"id": span_id, "name": name, "start": start,
                           "end": end, "parent": parent, "op": op})
        return span_id

    @contextmanager
    def span(self, name: str, parent: Optional[int] = None, op: Optional[int] = None):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, start, time.perf_counter(), parent, op)

    def self_times(self) -> Dict[int, float]:
        child_total: Dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_total[s["parent"]] = child_total.get(s["parent"], 0.0) + (s["end"] - s["start"])
        return {s["id"]: (s["end"] - s["start"]) - child_total.get(s["id"], 0.0) for s in self.spans}

    def module_self_times(self) -> Dict[str, float]:
        """Summed self seconds per span name."""
        out: Dict[str, float] = {}
        selfs = self.self_times()
        for s in self.spans:
            out[s["name"]] = out.get(s["name"], 0.0) + selfs[s["id"]]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"schema": "perfbench.spans/v1", "spans": self.spans}))


def self_time_table(module_seconds: Dict[str, float], ops: int) -> str:
    """Per-module self time per op and share, largest first."""
    total = sum(module_seconds.values()) or 1.0
    lines = [f"{'module':<28} {'self ms/op':>12} {'share':>7}"]
    for name, secs in sorted(module_seconds.items(), key=lambda kv: -kv[1]):
        lines.append(f"{name:<28} {secs * 1e3 / max(ops, 1):>12.4f} {secs / total:>7.1%}")
    return "\n".join(lines)


# --------------------------------------------------------------------- #
# Host fingerprint
# --------------------------------------------------------------------- #
def _first_line(cmd: List[str]) -> Optional[str]:
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=10, cwd=ROOT)
    except (OSError, subprocess.SubprocessError):
        return None
    text = (out.stdout or out.stderr).strip()
    return text.splitlines()[0] if out.returncode == 0 and text else None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fingerprint(engine_backend: Optional[str] = None) -> dict:
    """Host and build identity recorded next to every result."""
    versions = {}
    for module in ("numpy", "scipy"):
        try:
            versions[module] = __import__(module).__version__
        except ImportError:
            versions[module] = None
    commit = _first_line(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "cc": _first_line([os.environ.get("CC", "cc"), "--version"]),
        "python": platform.python_version(),
        "numpy": versions["numpy"],
        "scipy": versions["scipy"],
        "engine_backend": engine_backend,
        "git_commit": commit,
    }


def peak_rss_mb(pid: int) -> Optional[float]:
    """``VmHWM`` of a live process, in MB."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except (OSError, ValueError, IndexError):
        pass
    return None


def child_env() -> dict:
    """Environment for processes under test: the checkout's source, local temp."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(WORK / "tmp")
    env["REPRO_NATIVE_CACHE"] = str(WORK / "native-cache")
    env.pop("REPRO_NATIVE_SANITIZE", None)
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    return env


def log(message: str) -> None:
    print(message, flush=True)
