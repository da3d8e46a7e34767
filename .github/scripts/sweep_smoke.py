"""CI smoke test for the word-length sweep engine.

Exercises the real ``repro sweep`` CLI on a 3-point synthetic sweep with
``--seed-incumbents --sweep-trace``, checks the trace it writes (every
point recorded, ``seed_incumbents`` on, no parallel-pool keys), then
recomputes the same sweep through the API twice — the unseeded baseline
(``wordlength_sweep``) and the seeded engine (``run_sweep``) — and
asserts the two ``SweepPoint`` lists are byte-identical (canonical JSON
view, wall-clock timing excluded).

The chosen word lengths stop via the warm-start early exit, the regime
docs/wordlength_sweep.md documents as identity-guaranteed: seeds never
participate in the early-exit test, so seeding must not change a single
byte of the result.

Usage: PYTHONPATH=src python .github/scripts/sweep_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from repro.core.ldafp import LdaFpConfig
from repro.core.pipeline import PipelineConfig
from repro.data.synthetic import make_synthetic_dataset
from repro.wordlength import SweepConfig, SweepTrace, run_sweep, wordlength_sweep

SAMPLES = 400
SEED = 0
WORD_LENGTHS = (10, 12, 14)
MAX_NODES = 20_000


def canonical(points) -> str:
    return json.dumps([p.canonical() for p in points], sort_keys=True)


def main() -> int:
    trace_path = Path(tempfile.mkdtemp()) / "sweep_trace.json"
    command = [
        sys.executable, "-m", "repro", "sweep",
        "--dataset", "synthetic", "--samples", str(SAMPLES),
        "--seed", str(SEED),
        "--word-lengths", *[str(wl) for wl in WORD_LENGTHS],
        "--max-nodes", str(MAX_NODES),
        "--seed-incumbents",
        "--sweep-trace", str(trace_path),
    ]
    print("running:", " ".join(command))
    completed = subprocess.run(command, capture_output=True, text=True)
    print(completed.stdout)
    if completed.returncode != 0:
        print(completed.stderr, file=sys.stderr)
        raise SystemExit(f"repro sweep exited {completed.returncode}")

    trace = SweepTrace.load(trace_path)
    if [r.word_length for r in trace.records] != list(WORD_LENGTHS):
        raise SystemExit(f"trace records wrong word lengths: {trace.records}")
    if trace.meta.get("seed_incumbents") is not True:
        raise SystemExit(f"trace meta does not reflect the flags: {trace.meta}")
    retired = [key for key in ("workers", "chunks") if key in trace.meta]
    if retired:
        raise SystemExit(f"trace meta carries parallel-pool keys {retired}: {trace.meta}")
    print(f"trace ok: {len(trace.records)} points, meta={trace.meta}")

    # Same inputs the CLI used (see cli._run_sweep).
    train = make_synthetic_dataset(SAMPLES, seed=SEED)
    test = make_synthetic_dataset(SAMPLES, seed=SEED + 1)
    config = PipelineConfig(
        method="lda-fp", ldafp=LdaFpConfig(max_nodes=MAX_NODES)
    )

    unseeded = wordlength_sweep(train, test, WORD_LENGTHS, pipeline_config=config)
    seeded = run_sweep(
        train, test, WORD_LENGTHS, pipeline_config=config,
        sweep_config=SweepConfig(seed_incumbents=True),
    )
    for point in unseeded:
        if point.stop_reason != "gap":
            raise SystemExit(
                f"wl={point.word_length} stopped by {point.stop_reason!r}; "
                "the smoke sweep must stay in the early-exit identity regime"
            )
    unseeded_json, seeded_json = canonical(unseeded), canonical(seeded)
    if unseeded_json != seeded_json:
        raise SystemExit(
            "seeded sweep diverged from the unseeded baseline\n"
            f"unseeded: {unseeded_json}\nseeded:   {seeded_json}"
        )
    print("sweep smoke passed: seeded engine byte-identical "
          f"to the unseeded baseline on {list(WORD_LENGTHS)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
