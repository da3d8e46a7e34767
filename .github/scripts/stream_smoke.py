"""CI smoke test for the streaming signal-chain serving plane.

Boots the real ``repro serve`` CLI in cluster mode (1 shard x 2
``SO_REUSEPORT`` workers) against a trained ECG artifact, then:

1. routes streaming sessions client-side with
   :func:`repro.serve.shard_for_session`, opens each on its own
   persistent wire connection (the kernel balances *connections* across
   workers, so a session's filter state stays pinned to whichever worker
   accepted it — exactly the property chunked streaming depends on),
   pushes a chunked synthesized ECG recording through each session, and
   asserts every returned window is **bit-identical** to the offline
   pipeline (:func:`repro.serve.stream.run_offline`) on the same samples;
2. checks the supervisor's control plane aggregates the v3 streaming
   counters (sessions opened, chunks, windows) across both workers;
3. drives the ``repro stream`` CLI end to end against the live shard and
   validates its per-window JSON output;
4. SIGTERMs the fleet and requires a clean drain.

Usage: PYTHONPATH=src python .github/scripts/stream_smoke.py ARTIFACT.json
"""

from __future__ import annotations

import json
import re
import signal
import subprocess
import sys
import urllib.request

import numpy as np

from repro.core.serialize import load_classifier
from repro.data.ecg import EcgBeatConfig, synthesize_beat
from repro.serve import ModelRegistry, shard_for_session, wire
from repro.serve.stream import FrontEndConfig, run_offline

NUM_SHARDS = 1  # one model -> one hash-routed shard; workers scale within it
NUM_WORKERS = 2
NUM_SESSIONS = 3
CHUNK = 73  # deliberately uneven vs window_size=200 / hop=200


def _recording(seed: int, beats: int = 10) -> np.ndarray:
    config = EcgBeatConfig(sample_rate=250.0)
    rng = np.random.default_rng(seed)
    return np.concatenate(
        [synthesize_beat(config, rng, abnormal=b % 2 == 1) for b in range(beats)]
    )


def _boot(artifact: str) -> subprocess.Popen:
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--artifact", artifact,
            "--port", "0",
            "--workers", str(NUM_WORKERS),
            "--shards", str(NUM_SHARDS),
            "--max-sessions", "8",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def _read_ports(proc: subprocess.Popen) -> tuple[dict[int, int], int]:
    """Parse every announced shard data port plus the control port."""
    shard_ports: dict[int, int] = {}
    shard_pattern = re.compile(r"shard (\d+):.* http://[\d.]+:(\d+)")
    control_pattern = re.compile(r"control plane on http://[\d.]+:(\d+)")
    assert proc.stdout is not None
    for line in proc.stdout:
        print("server:", line.rstrip())
        match = shard_pattern.search(line)
        if match is not None:
            shard_ports[int(match.group(1))] = int(match.group(2))
        match = control_pattern.search(line)
        if match is not None:
            return shard_ports, int(match.group(1))
    raise SystemExit("server exited before announcing its ports")


def _stream_session(
    port: int, key: str, samples: np.ndarray, config: FrontEndConfig, expected
) -> None:
    """One full session on one persistent connection, bit-checked."""
    indices: list[int] = []
    raws: list[int] = []
    labels: list[int] = []
    with wire.WireClient("127.0.0.1", port, timeout=30.0) as client:
        opened = client.open_stream(key, config=config.to_dict(), model="ecg")
        if not isinstance(opened, wire.StreamOpened):
            raise SystemExit(f"{key}: open failed: {opened!r}")
        for seq, start in enumerate(range(0, samples.size, CHUNK)):
            reply = client.send_chunk(key, seq, samples[start : start + CHUNK])
            if not isinstance(reply, wire.StreamResult):
                raise SystemExit(f"{key}: chunk {seq} failed: {reply!r}")
            indices += [int(i) for i in reply.window_indices]
            raws += [int(r) for r in reply.projection_raws]
            labels += [int(v) for v in reply.labels]
        closed = client.close_stream(key)
        if not isinstance(closed, wire.StreamClosed):
            raise SystemExit(f"{key}: close failed: {closed!r}")
    if closed.samples != samples.size or closed.windows != len(indices):
        raise SystemExit(f"{key}: close totals wrong: {closed!r}")
    if indices != list(range(expected["num_windows"])):
        raise SystemExit(f"{key}: window indices wrong: {indices}")
    if raws != [int(r) for r in expected["projection_raws"]] or labels != [
        int(v) for v in expected["labels"]
    ]:
        raise SystemExit(f"{key}: streamed bits diverge from run_offline")
    print(
        f"{key}: {closed.chunks} chunks, {closed.samples} samples, "
        f"{closed.windows} windows — bit-identical to offline"
    )


def _get_json(url: str):
    with urllib.request.urlopen(url, timeout=10) as response:
        return json.loads(response.read())


def _run_stream_cli(port: int) -> None:
    """The `repro stream` CLI against the live shard, JSON mode."""
    out = subprocess.run(
        [
            sys.executable, "-m", "repro", "stream",
            "--port", str(port),
            "--session", "cli-smoke",
            "--model", "ecg",
            "--beats", "4",
            "--chunk", "60",
            "--json",
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    print("repro stream stderr:", out.stderr.rstrip() or "(none)")
    if out.returncode != 0:
        raise SystemExit(f"repro stream exited {out.returncode}: {out.stdout}")
    records = [
        json.loads(line)
        for line in out.stdout.splitlines()
        if line.startswith("{")
    ]
    windows = [r for r in records if "window" in r]
    if not windows:
        raise SystemExit(f"repro stream emitted no windows: {out.stdout!r}")
    for window in windows:
        if not {"window", "label", "projection_raw"} <= window.keys():
            raise SystemExit(f"malformed window record: {window}")
    summaries = [r for r in records if "windows" in r]
    if not summaries or summaries[-1]["windows"] != len(windows):
        raise SystemExit(f"close summary missing or wrong: {records}")
    print(f"repro stream CLI ok: {len(windows)} window(s) emitted")


def main() -> int:
    artifact = sys.argv[1]
    registry = ModelRegistry()
    registry.register("ecg", load_classifier(artifact))
    model = registry.get("ecg")
    config = FrontEndConfig()  # 250 Hz, 31 taps, (1, 40) Hz, 200/200

    proc = _boot(artifact)
    try:
        shard_ports, control_port = _read_ports(proc)
        if sorted(shard_ports) != list(range(NUM_SHARDS)):
            raise SystemExit(f"expected {NUM_SHARDS} shard(s), got {shard_ports}")

        for i in range(NUM_SESSIONS):
            key = f"patient-{i}"
            # Client-side routing: the session key picks the shard, the
            # persistent connection then pins the worker within it.
            port = shard_ports[shard_for_session(key, NUM_SHARDS)]
            samples = _recording(seed=100 + i)
            expected = run_offline(model, config, samples)
            if expected["num_windows"] < 1:
                raise SystemExit("offline reference produced no windows")
            _stream_session(port, key, samples, config, expected)

        metrics = _get_json(f"http://127.0.0.1:{control_port}/metrics.json")
        if metrics["schema"] != "repro.serve-cluster-metrics/v1":
            raise SystemExit(f"bad cluster metrics schema: {metrics['schema']}")
        if len(metrics["workers"]) != NUM_WORKERS:
            raise SystemExit(f"expected {NUM_WORKERS} worker snapshots")
        aggregate = metrics["aggregate"]
        if aggregate["sessions_opened_total"] < NUM_SESSIONS:
            raise SystemExit(f"session counter never moved: {aggregate}")
        if aggregate["stream_chunks_total"] < NUM_SESSIONS or (
            aggregate["stream_windows_total"] < NUM_SESSIONS
        ):
            raise SystemExit(f"stream counters never moved: {aggregate}")
        print(
            "control plane aggregates v3 stream counters: "
            f"sessions={aggregate['sessions_opened_total']} "
            f"chunks={aggregate['stream_chunks_total']} "
            f"windows={aggregate['stream_windows_total']}"
        )

        _run_stream_cli(shard_ports[shard_for_session("cli-smoke", NUM_SHARDS)])
    except BaseException:
        proc.kill()
        raise

    proc.send_signal(signal.SIGTERM)
    out, _ = proc.communicate(timeout=30)
    print("shutdown output:", out.rstrip() or "(none)")
    if proc.returncode != 0:
        raise SystemExit(f"supervisor exited {proc.returncode} on SIGTERM")
    if "draining" not in out:
        raise SystemExit(f"SIGTERM path skipped the drain: {out!r}")
    print("stream smoke passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
