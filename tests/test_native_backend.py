"""Tests for the compiled native datapath backend (cgen → ctypes).

Covers the three layers the backend is built from — the batch-kernel code
generator (:mod:`repro.hardware.cgen`), the content-hash build cache
(:mod:`repro.hardware.compile`), and the ctypes loader
(:mod:`repro.hardware.native`) — plus the serving-side plumbing
(``backend="native"`` on the engine/registry, the metrics backend label).

The graceful-degradation contract gets its own section: a missing
compiler, a failing compile, and a corrupted cache entry must each either
fall back to the numpy paths (engine) or raise
:class:`~repro.errors.NativeBackendError` (direct loader use) — never
crash, never silently serve wrong bits.  Tests that execute a compiled
kernel are skipped on hosts without a C compiler; everything else runs
everywhere.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.conformance.strategies import random_classifier
from repro.errors import InputValidationError, NativeBackendError
from repro.fixedpoint.overflow import OverflowMode
from repro.fixedpoint.qformat import QFormat
from repro.fixedpoint.rounding import RoundingMode
from repro.hardware.cgen import BATCH_KERNEL_SYMBOL, generate_batch_kernel_c
from repro.hardware.compile import (
    SANITIZE_FLAGS,
    cache_paths,
    compile_shared_library,
    default_cache_dir,
    evict_cache_entry,
    find_compiler,
    sanitizer_runtime_preload,
    source_digest,
)
from repro.hardware.native import (
    NativeKernel,
    load_native_kernel,
    native_backend_available,
)
from repro.serve.engine import ENGINE_BACKENDS, BatchInferenceEngine
from repro.serve.metrics import ServeMetrics
from repro.serve.registry import ModelRegistry

needs_cc = pytest.mark.skipif(
    not native_backend_available(), reason="no C compiler on this host"
)


def _classifier(seed: int = 0, k: int = 3, f: int = 5, m: int = 8):
    return random_classifier(np.random.default_rng(seed), k, f, m)


def _raw_batch(classifier, n: int = 64, seed: int = 1) -> np.ndarray:
    """Raw words one range-width beyond each side (wrap paths included)."""
    fmt = classifier.fmt
    rng = np.random.default_rng(seed)
    span = fmt.max_raw - fmt.min_raw + 1
    return rng.integers(
        fmt.min_raw - span,
        fmt.max_raw + span + 1,
        size=(n, classifier.num_features),
    )


# --------------------------------------------------------------------- #
# Code generator: determinism and admission
# --------------------------------------------------------------------- #
class TestBatchKernelCgen:
    def test_emitted_c_is_byte_identical_for_identical_artifacts(self):
        """Two separately built but bit-identical classifiers emit the same
        translation unit, byte for byte — the build-cache key depends on it."""
        a = _classifier(seed=7)
        b = _classifier(seed=7)
        assert a is not b
        assert generate_batch_kernel_c(a) == generate_batch_kernel_c(b)
        assert generate_batch_kernel_c(a) == generate_batch_kernel_c(a)

    def test_artifact_emitter_is_deterministic_too(self):
        """The original single-sample artifact emitter shares the
        determinism contract with the batch kernel."""
        from repro.hardware.cgen import generate_classifier_c

        a = _classifier(seed=7)
        b = _classifier(seed=7)
        assert generate_classifier_c(a) == generate_classifier_c(b)

    def test_distinct_artifacts_emit_distinct_c(self):
        base = _classifier(seed=7)
        other = _classifier(seed=8)
        assert generate_batch_kernel_c(base) != generate_batch_kernel_c(other)

    def test_overflow_mode_changes_the_source(self):
        clf = _classifier()
        wrap = generate_batch_kernel_c(clf, overflow=OverflowMode.WRAP)
        sat = generate_batch_kernel_c(clf, overflow=OverflowMode.SATURATE)
        assert wrap != sat
        assert "saturate_q" in sat and "saturate_q" not in wrap

    def test_source_carries_the_kernel_symbol(self):
        assert BATCH_KERNEL_SYMBOL in generate_batch_kernel_c(_classifier())

    def test_raise_overflow_is_rejected(self):
        with pytest.raises(InputValidationError):
            generate_batch_kernel_c(_classifier(), overflow=OverflowMode.RAISE)

    def test_stochastic_rounding_is_rejected(self):
        # The constructor itself refuses STOCHASTIC without an rng, so
        # smuggle it past quantization onto the frozen dataclass.
        clf = _classifier()
        object.__setattr__(clf, "rounding", RoundingMode.STOCHASTIC)
        with pytest.raises(InputValidationError):
            generate_batch_kernel_c(clf)

    def test_wide_formats_outside_int64_are_rejected(self):
        wide = random_classifier(np.random.default_rng(0), 16, 16, 8)
        with pytest.raises(InputValidationError):
            generate_batch_kernel_c(wide)


# --------------------------------------------------------------------- #
# Build cache
# --------------------------------------------------------------------- #
class TestBuildCache:
    def test_digest_tracks_source_text(self):
        assert source_digest("int x;") == source_digest("int x;")
        assert source_digest("int x;") != source_digest("int y;")

    def test_changed_source_lands_on_a_fresh_key(self, tmp_path):
        """A stale entry for new source is impossible by construction: the
        filename *is* the content digest."""
        a = cache_paths("int a;", str(tmp_path))
        b = cache_paths("int b;", str(tmp_path))
        assert a != b

    def test_default_cache_dir_honours_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        assert default_cache_dir() == str(tmp_path)

    def test_find_compiler_bogus_cc_means_none(self, monkeypatch):
        """A bogus $CC must NOT silently fall back to cc — it is how CI
        forces the no-compiler paths deterministically."""
        monkeypatch.setenv("CC", "definitely-not-a-real-compiler")
        assert find_compiler() is None

    def test_no_compiler_raises_native_backend_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CC", "definitely-not-a-real-compiler")
        with pytest.raises(NativeBackendError, match="no C compiler"):
            compile_shared_library("int x;", cache_dir=str(tmp_path))

    def test_compile_failure_carries_diagnostics(self, tmp_path):
        """A failing compile surfaces the command and exit code, and leaves
        no half-written .so behind."""
        source = generate_batch_kernel_c(_classifier())
        with pytest.raises(NativeBackendError, match="compile failed"):
            compile_shared_library(
                source, cache_dir=str(tmp_path), compiler="/bin/false"
            )
        _c_path, so_path = cache_paths(source, str(tmp_path))
        assert not os.path.exists(so_path)

    def test_broken_source_compile_failure(self, tmp_path):
        if not native_backend_available():
            pytest.skip("no C compiler on this host")
        with pytest.raises(NativeBackendError, match="compile failed"):
            compile_shared_library(
                "this is not C at all {", cache_dir=str(tmp_path)
            )

    @needs_cc
    def test_second_compile_hits_the_cache(self, tmp_path, monkeypatch):
        source = generate_batch_kernel_c(_classifier())
        first = compile_shared_library(source, cache_dir=str(tmp_path))
        # Remove every compiler: a cache hit must not need one.
        monkeypatch.setenv("CC", "definitely-not-a-real-compiler")
        second = compile_shared_library(source, cache_dir=str(tmp_path))
        assert first == second
        c_path, _so_path = cache_paths(source, str(tmp_path))
        with open(c_path) as handle:
            assert handle.read() == source

    @needs_cc
    def test_evict_cache_entry(self, tmp_path):
        source = generate_batch_kernel_c(_classifier())
        so_path = compile_shared_library(source, cache_dir=str(tmp_path))
        assert os.path.exists(so_path)
        evict_cache_entry(source, str(tmp_path))
        assert not os.path.exists(so_path)
        # Evicting an absent entry is a no-op, not an error.
        evict_cache_entry(source, str(tmp_path))


# --------------------------------------------------------------------- #
# Sanitized builds
# --------------------------------------------------------------------- #
def _fake_compiler(tmp_path, body_suffix=""):
    """An executable that records its argv and creates the -o target."""
    log = tmp_path / "argv.log"
    script = tmp_path / "fakecc"
    script.write_text(
        "#!/bin/sh\n"
        f'printf \'%s\\n\' "$@" > "{log}"\n'
        'out=""; prev=""\n'
        'for a in "$@"; do\n'
        '  if [ "$prev" = "-o" ]; then out="$a"; fi\n'
        '  prev="$a"\n'
        "done\n"
        ': > "$out"\n' + body_suffix
    )
    script.chmod(0o755)
    return str(script), log


class TestSanitizeBuild:
    def test_sanitize_folds_into_the_digest(self):
        source = "int x;"
        assert source_digest(source) != source_digest(source, sanitize=True)

    def test_sanitize_keys_a_separate_cache_entry(self, tmp_path):
        source = "int x;"
        plain = cache_paths(source, str(tmp_path))
        sanitized = cache_paths(source, str(tmp_path), sanitize=True)
        assert plain != sanitized

    def test_sanitize_flags_reach_the_compile_command(self, tmp_path):
        fakecc, log = _fake_compiler(tmp_path)
        cache = tmp_path / "cache"
        compile_shared_library(
            "int x;", cache_dir=str(cache), compiler=fakecc, sanitize=True
        )
        argv = log.read_text().splitlines()
        for flag in SANITIZE_FLAGS:
            assert flag in argv

    def test_plain_build_carries_no_sanitize_flags(self, tmp_path):
        fakecc, log = _fake_compiler(tmp_path)
        cache = tmp_path / "cache"
        compile_shared_library("int x;", cache_dir=str(cache), compiler=fakecc)
        argv = log.read_text().splitlines()
        assert not any(flag in argv for flag in SANITIZE_FLAGS)

    def test_plain_and_sanitized_builds_coexist(self, tmp_path):
        fakecc, _log = _fake_compiler(tmp_path)
        cache = tmp_path / "cache"
        source = "int x;"
        plain = compile_shared_library(
            source, cache_dir=str(cache), compiler=fakecc
        )
        sanitized = compile_shared_library(
            source, cache_dir=str(cache), compiler=fakecc, sanitize=True
        )
        assert plain != sanitized
        assert os.path.exists(plain) and os.path.exists(sanitized)
        # Eviction is per-variant: dropping the sanitized entry must not
        # touch the plain build.
        evict_cache_entry(source, str(cache), sanitize=True)
        assert os.path.exists(plain)
        assert not os.path.exists(sanitized)

    def test_preload_none_without_a_compiler(self, monkeypatch):
        monkeypatch.setenv("CC", "definitely-not-a-real-compiler")
        assert sanitizer_runtime_preload() is None

    def test_preload_none_when_runtime_is_unresolved(self, tmp_path):
        # gcc prints the bare name back when it cannot find the library;
        # that must not be handed to LD_PRELOAD.
        script = tmp_path / "fakecc"
        script.write_text("#!/bin/sh\necho libasan.so\n")
        script.chmod(0o755)
        assert sanitizer_runtime_preload(compiler=str(script)) is None

    def test_preload_none_when_compiler_fails(self, tmp_path):
        script = tmp_path / "fakecc"
        script.write_text("#!/bin/sh\nexit 1\n")
        script.chmod(0o755)
        assert sanitizer_runtime_preload(compiler=str(script)) is None

    def test_preload_resolves_a_real_runtime_path(self, tmp_path):
        runtime = tmp_path / "libasan.so"
        runtime.write_text("")
        script = tmp_path / "fakecc"
        script.write_text(f"#!/bin/sh\necho {runtime}\n")
        script.chmod(0o755)
        assert sanitizer_runtime_preload(compiler=str(script)) == str(
            runtime.resolve()
        )

    @needs_cc
    def test_real_compiler_preload_is_none_or_existing(self):
        preload = sanitizer_runtime_preload()
        assert preload is None or os.path.exists(preload)


# --------------------------------------------------------------------- #
# ctypes loader
# --------------------------------------------------------------------- #
@needs_cc
class TestNativeKernel:
    def test_bit_identical_to_fast_path(self, tmp_path):
        clf = _classifier()
        kernel = load_native_kernel(clf, cache_dir=str(tmp_path))
        raws = _raw_batch(clf)
        fast = BatchInferenceEngine(clf).run_raw(raws)
        # The loader contract assumes in-range words; clip like run_raw does.
        fmt = clf.fmt
        clipped = np.clip(raws, fmt.min_raw, fmt.max_raw)
        proj, labels, pflags, aflags = kernel.run_raws(clipped)
        assert np.array_equal(proj, fast.projection_raws)
        assert np.array_equal(labels, fast.labels)
        assert np.array_equal(pflags, fast.product_overflowed)
        assert np.array_equal(aflags, fast.accumulator_overflowed)

    def test_corrupted_cache_entry_is_evicted_and_rebuilt(self, tmp_path):
        clf = _classifier()
        source = generate_batch_kernel_c(clf)
        so_path = compile_shared_library(source, cache_dir=str(tmp_path))
        with open(so_path, "wb") as handle:
            handle.write(b"this is not a shared library")
        kernel = load_native_kernel(clf, cache_dir=str(tmp_path))
        proj, labels, _p, _a = kernel.run_raws(
            np.clip(_raw_batch(clf), clf.fmt.min_raw, clf.fmt.max_raw)
        )
        fast = BatchInferenceEngine(clf).run_raw(
            np.clip(_raw_batch(clf), clf.fmt.min_raw, clf.fmt.max_raw)
        )
        assert np.array_equal(proj, fast.projection_raws)
        assert np.array_equal(labels, fast.labels)

    def test_unloadable_library_raises(self, tmp_path):
        garbage = tmp_path / "garbage.so"
        garbage.write_bytes(b"\x00\x01\x02")
        with pytest.raises(NativeBackendError, match="cannot load"):
            NativeKernel("int x;", str(garbage), 4)

    def test_wrong_shape_is_rejected(self, tmp_path):
        clf = _classifier(m=4)
        kernel = load_native_kernel(clf, cache_dir=str(tmp_path))
        with pytest.raises(NativeBackendError, match="expects"):
            kernel.run_raws(np.zeros((3, 5), dtype=np.int64))

    def test_ineligible_classifier_raises_native_backend_error(self, tmp_path):
        """Engine fallback catches exactly NativeBackendError, so the loader
        must normalize generation-time validation failures into it."""
        wide = random_classifier(np.random.default_rng(0), 16, 16, 8)
        with pytest.raises(NativeBackendError):
            load_native_kernel(wide, cache_dir=str(tmp_path))


# --------------------------------------------------------------------- #
# Engine / registry / metrics plumbing
# --------------------------------------------------------------------- #
class TestEngineBackendSelection:
    def test_backend_registry_constant(self):
        assert ENGINE_BACKENDS == ("auto", "object", "native")

    def test_unknown_backend_rejected(self):
        with pytest.raises(InputValidationError, match="unknown backend"):
            BatchInferenceEngine(_classifier(), backend="gpu")

    def test_object_backend_forces_object_path(self):
        engine = BatchInferenceEngine(_classifier(), backend="object")
        assert engine.backend == "object"
        assert not engine.fast_path

    def test_auto_backend_keeps_historical_behaviour(self):
        engine = BatchInferenceEngine(_classifier())
        assert engine.backend == "fast"
        assert engine.native_kernel is None
        assert engine.native_fallback_reason is None

    def test_native_without_compiler_falls_back_with_reason(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("CC", "definitely-not-a-real-compiler")
        engine = BatchInferenceEngine(
            _classifier(), backend="native", native_cache=str(tmp_path)
        )
        assert engine.backend == "fast"
        assert engine.native_kernel is None
        assert "no C compiler" in engine.native_fallback_reason

    def test_native_on_raise_overflow_falls_back(self, tmp_path):
        engine = BatchInferenceEngine(
            _classifier(),
            overflow=OverflowMode.RAISE,
            backend="native",
            native_cache=str(tmp_path),
        )
        assert engine.backend != "native"
        assert engine.native_fallback_reason is not None

    @needs_cc
    def test_native_backend_is_bit_identical_end_to_end(self, tmp_path):
        for overflow in (OverflowMode.WRAP, OverflowMode.SATURATE):
            clf = _classifier()
            native = BatchInferenceEngine(
                clf,
                overflow=overflow,
                backend="native",
                native_cache=str(tmp_path),
            )
            assert native.backend == "native"
            assert "path=native" in native.describe()
            fast = BatchInferenceEngine(clf, overflow=overflow)
            rng = np.random.default_rng(3)
            features = rng.uniform(-8.0, 8.0, size=(100, clf.num_features))
            got, want = native.run(features), fast.run(features)
            assert np.array_equal(got.projection_raws, want.projection_raws)
            assert np.array_equal(got.labels, want.labels)
            assert np.array_equal(got.product_overflowed, want.product_overflowed)
            assert np.array_equal(
                got.accumulator_overflowed, want.accumulator_overflowed
            )
            raws = _raw_batch(clf)
            got_raw, want_raw = native.run_raw(raws), fast.run_raw(raws)
            assert np.array_equal(got_raw.projection_raws, want_raw.projection_raws)
            assert np.array_equal(got_raw.labels, want_raw.labels)

    @needs_cc
    def test_native_empty_batch(self, tmp_path):
        clf = _classifier()
        engine = BatchInferenceEngine(
            clf, backend="native", native_cache=str(tmp_path)
        )
        result = engine.run(np.zeros((0, clf.num_features)))
        assert result.num_samples == 0

    @needs_cc
    def test_registry_builds_native_engines(self, tmp_path):
        registry = ModelRegistry(backend="native", native_cache=str(tmp_path))
        model = registry.register("m", _classifier())
        assert model.engine.backend == "native"
        assert "path=native" in model.describe()

    def test_registry_native_falls_back_per_model(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CC", "definitely-not-a-real-compiler")
        registry = ModelRegistry(backend="native", native_cache=str(tmp_path))
        model = registry.register("m", _classifier())
        assert model.engine.backend == "fast"
        assert model.engine.native_fallback_reason is not None


class TestMetricsBackendLabel:
    def test_backend_label_in_json_and_prometheus(self):
        engine = BatchInferenceEngine(_classifier())
        result = engine.run(np.zeros((2, engine.num_features)))
        metrics = ServeMetrics()
        metrics.observe_batch(
            "m", result, 0.001, content_hash="cafe", backend=engine.backend
        )
        snap = metrics.to_dict()
        assert snap["models"]["m"]["backend"] == "fast"
        assert 'backend="fast"' in metrics.render_prometheus()
