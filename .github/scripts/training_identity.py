"""Canonical JSON of a fixed set of LDA-FP training runs, for identity checks.

A change that should leave training outputs untouched (a faster check, a
refactor of the heuristics) is verified by running this script on the
parent tree and on the change and comparing the two files byte for byte::

    PYTHONPATH=<parent>/src python .github/scripts/training_identity.py > parent.json
    PYTHONPATH=src python .github/scripts/training_identity.py > change.json
    cmp parent.json change.json

The set:

- ``sweep``: 60 word-length sweep points, the ``train_sweep`` benchmark's
  6 pinned datasets at word lengths 4-8 for input seeds 1 and 2 (inputs
  and pipeline config imported from ``perfbench/training.py``);
- ``solves``: 48 ``train_lda_fp`` solves, seed 1's 6 datasets at word
  lengths 5-6 under the default, plain, plain-without-propagation and
  no-local-search configs;
- ``backends``: 8 solves, 2 datasets x word lengths 5-6 x the
  ``barrier`` and ``slsqp`` backends;
- ``pinned``: the pinned Q2.3 case, default and plain arms;
- ``bci``: the 42-feature BCI solve (Q2.3, 60-node cap, shrinkage 1e-3).

Every run records its outputs (weights, threshold, polarity, report or
sweep point), every solver trace event and the final solver stats.
Wall-clock fields (event ``t``, ``wall_time``, ``train_seconds``) are
dropped; floats are written with ``repr``, so equal files mean equal bits.

It is a review tool, not a CI gate: float bits may differ across hosts
and BLAS builds, so only two trees run on the same host are comparable.
The whole set takes about a minute.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

import training as perfbench_training  # noqa: E402

from repro.core.ldafp import LdaFpConfig, train_lda_fp  # noqa: E402
from repro.core.pipeline import TrainingPipeline  # noqa: E402
from repro.data.bci import make_bci_dataset  # noqa: E402
from repro.data.scaling import FeatureScaler  # noqa: E402
from repro.data.synthetic import make_synthetic_dataset  # noqa: E402
from repro.fixedpoint.qformat import QFormat  # noqa: E402
from repro.optim.trace import SolverTrace  # noqa: E402
from repro.wordlength.engine import run_sweep  # noqa: E402

SWEEP_SEEDS = (1, 2)
SOLVE_WORD_LENGTHS = (5, 6)
ARMS = {
    "default": {},
    "plain": dict(presolve=False, symmetry_cuts=False),
    "plain_no_propagation": dict(
        presolve=False, symmetry_cuts=False, bound_propagation=False
    ),
    "no_local_search": dict(local_search=False),
}
BACKEND_DATASETS = 2


def trace_record(trace: SolverTrace) -> dict:
    events = []
    for event in trace.events:
        entry = dataclasses.asdict(event)
        del entry["t"]
        events.append(entry)
    stats = dict(trace.stats or {})
    stats.pop("wall_time", None)
    return {"events": events, "stats": stats}


def solve_record(dataset, fmt: QFormat, config: LdaFpConfig) -> dict:
    trace = SolverTrace()
    classifier, report = train_lda_fp(dataset, fmt, config, trace=trace)
    outcome = dataclasses.asdict(report)
    del outcome["train_seconds"]
    return {
        "weights": [float(w) for w in classifier.weights],
        "threshold": float(classifier.threshold),
        "polarity": int(classifier.polarity),
        "report": outcome,
        "trace": trace_record(trace),
    }


def sweep_records() -> list:
    config = perfbench_training._sweep_config()
    out = []
    for seed in SWEEP_SEEDS:
        for pool_seed, train, test in perfbench_training._sweep_inputs(seed):
            traces = {}

            def factory(wl, traces=traces):
                traces[wl] = SolverTrace()
                return traces[wl]

            points = run_sweep(
                train, test, perfbench_training.WORD_LENGTHS, config,
                trace_factory=factory,
            )
            for point in points:
                out.append({
                    "seed": seed,
                    "pool": pool_seed,
                    "point": point.canonical(),
                    "trace": trace_record(traces[point.word_length]),
                })
    return out


def scaled_solve_inputs():
    """Seed 1's pinned datasets, scaled as the sweep scales them."""
    config = perfbench_training._sweep_config()
    pipeline = TrainingPipeline(config)
    for pool_seed, train, _ in perfbench_training._sweep_inputs(SWEEP_SEEDS[0]):
        scaler = pipeline.scaler_for(max(SOLVE_WORD_LENGTHS))
        scaler.fit(train.features)
        yield pool_seed, train.map_features(scaler.transform), pipeline, config.ldafp


def solve_records() -> list:
    out = []
    for pool_seed, train, pipeline, base in scaled_solve_inputs():
        for wl in SOLVE_WORD_LENGTHS:
            for arm, changes in ARMS.items():
                config = dataclasses.replace(base, **changes)
                record = solve_record(train, pipeline.format_for(wl), config)
                out.append({"pool": pool_seed, "word_length": wl, "arm": arm, **record})
    return out


def backend_records() -> list:
    out = []
    inputs = list(scaled_solve_inputs())[:BACKEND_DATASETS]
    for pool_seed, train, pipeline, base in inputs:
        for wl in SOLVE_WORD_LENGTHS:
            for backend in ("barrier", "slsqp"):
                config = dataclasses.replace(base, backend=backend)
                record = solve_record(train, pipeline.format_for(wl), config)
                out.append(
                    {"pool": pool_seed, "word_length": wl, "backend": backend, **record}
                )
    return out


def pinned_records() -> list:
    """The pinned Q2.3 case of ``tests/test_presolve.py::TestPinnedSearch``."""
    ds = make_synthetic_dataset(1000, seed=0)
    ds = ds.map_features(FeatureScaler(limit=0.9).fit(ds.features).transform)
    out = []
    for arm in ("default", "plain"):
        config = LdaFpConfig(
            max_nodes=20_000, time_limit=None, relative_gap=1e-6, **ARMS[arm]
        )
        out.append({"arm": arm, **solve_record(ds, QFormat(2, 3), config)})
    return out


def bci_record() -> dict:
    ds = make_bci_dataset()
    ds = ds.map_features(FeatureScaler(limit=0.9).fit(ds.features).transform)
    config = LdaFpConfig(max_nodes=60, time_limit=None, shrinkage=1e-3)
    return solve_record(ds, QFormat(2, 3), config)


def main() -> int:
    payload = {
        "sweep": sweep_records(),
        "solves": solve_records(),
        "backends": backend_records(),
        "pinned": pinned_records(),
        "bci": [bci_record()],
    }
    json.dump(payload, sys.stdout, indent=1, sort_keys=True, default=float)
    sys.stdout.write("\n")
    counts = {name: len(records) for name, records in payload.items()}
    print(f"training identity set: {counts}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
