"""Differential fuzz driver behind ``repro fuzz``.

Drives the :mod:`repro.conformance.oracles` registry with hypothesis:
each oracle's strategy generates JSON-able cases, ``check`` replays them
through both implementations, and any :class:`OracleDiscrepancy` is
shrunk by hypothesis before it reaches us — the exception that finally
escapes carries the *minimal* failing case.  That case is written as a
``repro.fuzz-witness/v1`` file which ``repro fuzz --replay`` re-executes
without hypothesis, so a CI failure reproduces locally from one JSON
blob.

Exit-code convention (same as ``repro check``): 0 all oracles agree,
1 a discrepancy was found (or a replayed witness still fails),
2 the invocation itself was invalid.

Determinism: for a fixed ``--seed`` the example stream is fixed, and the
default report prints only oracle names and verdicts (no counts, no
timings), so two identical clean runs produce byte-identical output even
when a wall-clock budget truncates late oracles mid-stream.

The module also hosts the **mutation selftest** (``repro fuzz
--selftest``): it patches a deliberate off-by-one into the reference
datapath, into the vectorized fixed-point FIR kernel and, where a C
compiler exists, into the *emitted C* of the native backend, asserts the
matching oracle catches it and yields a witness, asserts ``--replay``
reproduces the discrepancy under the mutation, and asserts the same
witness passes on the unmutated tree.
A fuzzer that cannot detect a seeded bug is worse than no fuzzer — this
proves detection end to end on every CI run.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from hypothesis import HealthCheck, Phase, Verbosity, given
from hypothesis import seed as hypothesis_seed
from hypothesis import settings as hypothesis_settings

from ..errors import DataError, InputValidationError
from .oracles import ALL_ORACLES, Oracle, OracleDiscrepancy, get_oracle

__all__ = [
    "WITNESS_SCHEMA",
    "parse_budget",
    "fuzz_oracle",
    "run_fuzz",
    "write_witness",
    "load_witness",
    "replay_witness",
    "injected_datapath_mutation",
    "injected_cgen_mutation",
    "injected_fxfir_mutation",
    "run_selftest",
]

WITNESS_SCHEMA = "repro.fuzz-witness/v1"


def parse_budget(text: str) -> float:
    """Parse a wall-clock budget like ``"60s"``, ``"5m"``, or ``"90"``."""
    raw = text.strip().lower()
    scale = 1.0
    if raw.endswith("ms"):
        raw, scale = raw[:-2], 1e-3
    elif raw.endswith("s"):
        raw = raw[:-1]
    elif raw.endswith("m"):
        raw, scale = raw[:-1], 60.0
    elif raw.endswith("h"):
        raw, scale = raw[:-1], 3600.0
    try:
        seconds = float(raw) * scale
    except ValueError:
        raise InputValidationError(
            f"cannot parse budget {text!r}; use e.g. 60s, 5m, 1h"
        ) from None
    if seconds <= 0:
        raise InputValidationError(f"budget must be positive, got {text!r}")
    return seconds


def fuzz_oracle(
    oracle: Oracle,
    seed: int,
    max_examples: int,
    stop_after: Optional[float] = None,
) -> Optional[OracleDiscrepancy]:
    """Fuzz one oracle; return the shrunk discrepancy, or None if it held.

    ``stop_after`` is a ``time.monotonic()`` deadline: once passed, the
    remaining examples become no-ops so hypothesis drains quickly without
    reporting spurious passes as failures.
    """

    @hypothesis_seed(seed)
    @hypothesis_settings(
        max_examples=max_examples,
        deadline=None,
        database=None,
        derandomize=False,
        report_multiple_bugs=False,
        print_blob=False,
        verbosity=Verbosity.quiet,
        suppress_health_check=list(HealthCheck),
        phases=(Phase.generate, Phase.shrink),
    )
    @given(oracle.strategy())
    def drive(case: dict) -> None:
        if stop_after is not None and time.monotonic() > stop_after:
            return
        oracle.check(case)

    try:
        drive()
    except OracleDiscrepancy as exc:
        return exc
    return None


def run_fuzz(
    oracle_names: Optional[Sequence[str]] = None,
    seed: int = 0,
    examples: Optional[int] = None,
    budget_seconds: Optional[float] = None,
    emit: Callable[[str], None] = print,
) -> Tuple[int, Optional[OracleDiscrepancy]]:
    """Fuzz the selected oracles; returns ``(exit_code, first_failure)``.

    Stops at the first discrepancy (depth-first shrinking beats breadth
    once anything fails).  The report is deterministic for a fixed seed on
    a clean tree: one ``ok`` line per oracle plus a one-line summary.
    """
    if oracle_names:
        oracles = [get_oracle(name) for name in oracle_names]
    else:
        oracles = list(ALL_ORACLES)
    stop_after = (
        time.monotonic() + budget_seconds if budget_seconds is not None else None
    )
    for oracle in oracles:
        failure = fuzz_oracle(
            oracle,
            seed=seed,
            max_examples=examples if examples is not None else oracle.default_examples,
            stop_after=stop_after,
        )
        if failure is not None:
            emit(f"oracle {oracle.name}: FAIL")
            emit(f"  {failure.detail}")
            return 1, failure
        emit(f"oracle {oracle.name}: ok")
    emit(f"fuzz: {len(oracles)} oracle(s) ok")
    return 0, None


# --------------------------------------------------------------------- #
# Witness files
# --------------------------------------------------------------------- #
def write_witness(path: str, failure: OracleDiscrepancy, seed: int) -> None:
    """Serialize a shrunk discrepancy as a replayable witness file."""
    payload = {
        "schema": WITNESS_SCHEMA,
        "oracle": failure.oracle,
        "seed": int(seed),
        "message": failure.detail,
        "case": failure.case,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_witness(path: str) -> dict:
    """Load and schema-check a witness file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read witness {path!r}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("schema") != WITNESS_SCHEMA:
        raise DataError(
            f"witness {path!r} is not a {WITNESS_SCHEMA} file "
            f"(schema={payload.get('schema') if isinstance(payload, dict) else None!r})"
        )
    if "oracle" not in payload or "case" not in payload:
        raise DataError(f"witness {path!r} is missing 'oracle' or 'case'")
    return payload


def replay_witness(
    path: str, emit: Callable[[str], None] = print
) -> Tuple[int, Optional[OracleDiscrepancy]]:
    """Re-run a witness case without hypothesis.

    Exit 1 when the discrepancy still reproduces (the bug is live), 0 when
    the implementations now agree (the bug is fixed), 2 on a bad file.
    """
    payload = load_witness(path)
    oracle = get_oracle(str(payload["oracle"]))
    try:
        oracle.check(payload["case"])
    except OracleDiscrepancy as exc:
        emit(f"witness {path}: REPRODUCED on oracle {oracle.name}")
        emit(f"  {exc.detail}")
        return 1, exc
    emit(f"witness {path}: no longer reproduces (oracle {oracle.name} agrees)")
    return 0, None


# --------------------------------------------------------------------- #
# Mutation selftest
# --------------------------------------------------------------------- #
@contextmanager
def injected_datapath_mutation() -> Iterator[None]:
    """Deliberately break the reference datapath (off-by-one on the result).

    Patches :meth:`FixedPointDatapath.project_traced` to wrap ``+1`` onto
    the final raw word — exactly the class of silent bit-level bug the
    conformance harness exists to catch.  Selftest use only.
    """
    from ..fixedpoint.datapath import FixedPointDatapath

    original = FixedPointDatapath.project_traced

    def mutated(self, features):  # type: ignore[no-untyped-def]
        trace = original(self, features)
        fmt = self.config.fmt
        trace.result_raw = int(fmt.wrap_raw(trace.result_raw + 1))
        return trace

    FixedPointDatapath.project_traced = mutated  # type: ignore[method-assign]
    try:
        yield
    finally:
        FixedPointDatapath.project_traced = original  # type: ignore[method-assign]


@contextmanager
def injected_cgen_mutation() -> Iterator[None]:
    """Deliberately break the *emitted C* (off-by-one on the threshold).

    Patches :func:`repro.hardware.cgen.generate_batch_kernel_c` so every
    generated kernel subtracts ``THRESHOLD - 1`` instead of ``THRESHOLD``.
    The mutated translation unit hashes to a fresh build-cache key, so it
    really compiles and really runs — proving the ``native_vs_fast`` oracle
    catches bit-level bugs in the code generator itself, not just in the
    Python wrappers.  Selftest use only.
    """
    from ..hardware import cgen

    original = cgen.generate_batch_kernel_c

    def mutated(classifier, overflow="wrap"):  # type: ignore[no-untyped-def]
        source = original(classifier, overflow=overflow)
        target = "int64_t result = wrap_q(acc - THRESHOLD);"
        assert target in source, "cgen mutation anchor missing"
        return source.replace(
            target, "int64_t result = wrap_q(acc - THRESHOLD + 1);"
        )

    cgen.generate_batch_kernel_c = mutated  # type: ignore[assignment]
    try:
        yield
    finally:
        cgen.generate_batch_kernel_c = original  # type: ignore[assignment]


@contextmanager
def injected_fxfir_mutation() -> Iterator[None]:
    """Deliberately break the vectorized FIR kernel (off-by-one output).

    Patches :meth:`repro.signal.stream.FixedPointFirStream.process` to add
    one LSB to every output word.  :meth:`FixedPointFir.apply` runs the
    same kernel, so only the per-sample reference the ``stream_vs_batch``
    oracle holds both to can catch it — proving that arm is not vacuous.
    Selftest use only.
    """
    from ..signal.stream import FixedPointFirStream

    original = FixedPointFirStream.process

    def mutated(self, chunk):  # type: ignore[no-untyped-def]
        return original(self, chunk) + self.fir.fmt.resolution

    FixedPointFirStream.process = mutated  # type: ignore[method-assign]
    try:
        yield
    finally:
        FixedPointFirStream.process = original  # type: ignore[method-assign]


def _selftest_round(
    label: str,
    oracle_name: str,
    mutation: Callable[[], "object"],
    seed: int,
    witness_path: Optional[str],
    emit: Callable[[str], None],
    max_examples: int = 40,
) -> int:
    """One detect → replay-under-mutation → pass-clean cycle; 0 on success.

    Steps: (1) under the mutation, the oracle must find a discrepancy;
    (2) the witness it writes must reproduce under the mutation via the
    replay path; (3) the same witness must pass on the clean tree.
    """
    oracle = get_oracle(oracle_name)
    cleanup = witness_path is None
    if witness_path is None:
        fd, witness_path = tempfile.mkstemp(
            prefix="repro-fuzz-selftest-", suffix=".json"
        )
        os.close(fd)
    try:
        with mutation():
            failure = fuzz_oracle(oracle, seed=seed, max_examples=max_examples)
        if failure is None:
            emit(f"selftest: FAIL — injected {label} mutation went undetected")
            return 1
        write_witness(witness_path, failure, seed)
        emit(f"selftest: {label} mutation detected ({failure.detail})")

        with mutation():
            code, _ = replay_witness(witness_path, emit=lambda _msg: None)
        if code != 1:
            emit(
                f"selftest: FAIL — {label} witness does not reproduce "
                "under the mutation"
            )
            return 1
        emit(f"selftest: {label} witness reproduces under the mutation")

        code, _ = replay_witness(witness_path, emit=lambda _msg: None)
        if code != 0:
            emit(
                f"selftest: FAIL — {label} witness still fails on the clean "
                "tree (the harness found a real discrepancy, not the "
                "injected one)"
            )
            return 1
        emit(f"selftest: {label} witness passes on the clean tree")
        return 0
    finally:
        if cleanup:
            try:
                os.unlink(witness_path)
            except OSError:
                pass


def run_selftest(
    seed: int = 0,
    witness_path: Optional[str] = None,
    emit: Callable[[str], None] = print,
) -> int:
    """Prove end-to-end bug detection with injected mutations.

    Three rounds, each detect → replay → clean-pass (see
    :func:`_selftest_round`): an off-by-one patched into the reference
    *datapath* (caught by ``engine-datapath``), an off-by-one patched into
    the *emitted C* (caught by ``native_vs_fast``), and an off-by-one
    patched into the vectorized *FIR kernel* (caught by
    ``stream_vs_batch``).  The C round is skipped — with a notice — on
    hosts without a C compiler, where the native backend cannot exist.
    Returns 0 only when every round holds.
    """
    code = _selftest_round(
        "datapath",
        "engine-datapath",
        injected_datapath_mutation,
        seed,
        witness_path,
        emit,
    )
    if code != 0:
        return code

    from ..hardware.native import native_backend_available

    if native_backend_available():
        code = _selftest_round(
            "cgen",
            "native_vs_fast",
            injected_cgen_mutation,
            seed,
            # The datapath round already consumed any caller-supplied path;
            # the C round always uses its own temp file.
            None,
            emit,
            max_examples=25,
        )
        if code != 0:
            return code
    else:
        emit("selftest: no C compiler — skipping the cgen-mutation round")
    code = _selftest_round(
        "fxfir",
        "stream_vs_batch",
        injected_fxfir_mutation,
        seed,
        None,
        emit,
        max_examples=25,
    )
    if code != 0:
        return code
    emit("selftest: ok")
    return 0


def describe_oracles() -> List[str]:
    """One formatted line per registered oracle (``repro fuzz --list``)."""
    width = max(len(oracle.name) for oracle in ALL_ORACLES)
    return [
        f"{oracle.name:<{width}}  [{oracle.default_examples:>3} examples]  "
        f"{oracle.description}"
        for oracle in ALL_ORACLES
    ]
