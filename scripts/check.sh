#!/usr/bin/env bash
# Repo gate: formatting, lints, and the full test suite.
#
# Usage:
#   scripts/check.sh              # full gate (fmt, clippy, doc, tests)
#   M3XU_SOAK=1 scripts/check.sh  # + release soak of the differential and
#                                 #   stress suites with a longer shape sweep
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Every workspace member, not only the root package: the crates' own
# unit and integration suites (the rounder and SIMD drain tests in
# m3xu-mxu, the kernel robustness suite, the serve service suite, the
# softfloat golden vectors) run here.
echo "== cargo test -q --workspace"
cargo test -q --workspace

echo "== cargo test --release -q --workspace"
cargo test --release -q --workspace

# The repository benchmark is its own Cargo workspace, so the steps above
# never build it. Its tests build the binary against the library and run
# every workload at a tiny size, checking every output bit: a change that
# breaks an entry point `benchmark/src/adapter.rs` calls fails here, not
# first in a benchmark run.
echo "== benchmark build + tests (release)"
cargo test --release -q --manifest-path benchmark/Cargo.toml

echo "== cross-validation: functional ExecStats vs analytical model (release)"
cargo test --release -q --test cross_validation

# SIMD gate: the parity, differential and cross-validation suites with
# the vector pipeline at the auto-detected level (`M3XU_SIMD=1`, AVX-512
# on an x86-64-v4 host: the products and the f64 rounder one zmm per
# fragment row), forced to AVX2 (`M3XU_SIMD=avx2`, so the four-lane
# build of the same source and the AVX2 FMA row run on such a host too,
# and the dispatch guard admits a level below the host's), forced to
# SSE2 (`M3XU_SIMD=sse2`, the baseline build, two lanes, whose
# `f64::mul_add` emulated-FP64 row loop is code of its own; its panel
# bodies, row products and rounder are the portable source every level
# compiles), and forced off (`M3XU_SIMD=0`, the scalar oracle standing
# alone). The differential suite includes the emulated-FP64 softfloat FMA
# envelope test; cross-validation asserts exact `simd_chunks` /
# `simd_fallbacks` counts, checked calls' included, which are zero at
# `Scalar`. The armed chaos run recovers injected faults on each level's
# checked chunks, whose residues come from each level's build of the
# lane tap on the row products, or from the scalar element body's
# decoded lanes, and its golden table pins every chunk's match decision
# at each level. On a host
# without AVX-512, `1` and `avx2` run the same level. The level is
# resolved once per process, hence one cargo invocation per setting.
for simd in 1 avx2 sse2 0; do
    echo "== SIMD parity + differential + cross-validation suites under M3XU_SIMD=${simd}"
    M3XU_SIMD=${simd} cargo test -q \
        --test simd_parity --test simd_env --test differential_props \
        --test cross_validation
    echo "== BLAS-3 differential suite under M3XU_SIMD=${simd}"
    M3XU_SIMD=${simd} M3XU_PROP_CASES=4 cargo test -q \
        --test blas3_differential
    echo "== armed chaos suite (release) under M3XU_SIMD=${simd}"
    M3XU_SIMD=${simd} M3XU_FAULT_SEED=7 M3XU_FAULT_RATE=2e-2 cargo test --release -q \
        --test chaos_faults
done

# Perf smoke gates (release), both in tests/perf_smoke.rs: the vector
# path is engaged and clears a conservative speedup floor over the
# forced-scalar packed path, and the serve layer's adaptive batching
# decision holds, read from the shard scheduler's batch counts: every
# drained batch of two or more 128^3 GEMMs pools into one epoch, and a
# batch holding a 256^3 GEMM runs inline (every 128^3 result
# bit-checked; the batched-over-one-at-a-time wall ratio is printed, not
# gated).
echo "== release perf smoke gates (M3XU_PERF_GATE=1)"
M3XU_PERF_GATE=1 cargo test --release -q --test perf_smoke -- --nocapture

# The differential property suite and the concurrency stress tests must
# hold regardless of how the process-wide pool is sized, so run them at
# both ends of the thread-count range (M3XU_THREADS is resolved once per
# process, hence one cargo invocation per setting).
for threads in 1 8; do
    echo "== differential + stress suites under M3XU_THREADS=${threads}"
    M3XU_THREADS=${threads} cargo test -q \
        --test differential_props --test cross_validation
    echo "== BLAS-3 differential suite under M3XU_THREADS=${threads}"
    M3XU_THREADS=${threads} M3XU_PROP_CASES=4 cargo test -q \
        --test blas3_differential
done

# Chaos gate: the fault-injection suite, debug and release. The first
# run (no env arming) includes the zero-fault differential gate, the
# golden fault-telemetry table, the universal-ABFT BLAS-3/f64 sweeps, and
# the shard self-healing tests
# (watchdog kill + poison quarantine); the seed x rate grid then re-runs
# the whole suite with every process-wide context armed — recoverable by
# construction, so everything must still be bit-identical.
for profile in "" "--release"; do
    echo "== chaos suite ${profile:-debug} (zero-fault gate + armed sweeps)"
    cargo test -q ${profile} --test chaos_faults --test chaos_env --test serve_edge
    echo "== universal-ABFT gate ${profile:-debug} (BLAS-3/f64 sweeps + self-healing, named)"
    cargo test -q ${profile} --test chaos_faults -- \
        golden_fault_summaries_match_the_committed_table \
        mismatched_blocks_rerun_chunk_by_chunk_to_the_unchecked_bits \
        armed_blas3_and_f64_sweep_recovers_bit_identically \
        serve_blas3_chaos_single_shard_reconciles \
        serve_blas3_chaos_four_shards_reconcile \
        watchdog_respawns_a_killed_shard_and_conserves_accounting \
        poison_request_quarantines_alone_without_tripping_the_breaker
    for seed in 1 7 23; do
        for rate in 1e-3 2e-2; do
            echo "== chaos suite ${profile:-debug} under M3XU_FAULT_SEED=${seed} M3XU_FAULT_RATE=${rate}"
            M3XU_FAULT_SEED=${seed} M3XU_FAULT_RATE=${rate} cargo test -q ${profile} \
                --test chaos_faults
        done
    done
done

# Serve gate: the serve edge suite at shard counts 1 and 4
# (M3XU_SERVE_SHARDS is resolved per process, and only serve_edge reads
# it). serve_regressions sets its own shard counts in its tests and runs
# in both workspace test steps above. The adaptive-batching floor runs
# with the perf smoke gates above.
for shards in 1 4; do
    echo "== serve edge suite under M3XU_SERVE_SHARDS=${shards}"
    M3XU_SERVE_SHARDS=${shards} cargo test -q --test serve_edge
done

# Precision gate (release): the emulated-FP64 engine must return the
# bits of a sequential correctly-rounded softfloat FMA reference over
# dense and adversarial operands (signed zeros, subnormals, overflow,
# NaN), the one documented difference being +0 for an exact-zero sum
# where IEEE keeps -0 — any rounding regression in the slice/Kulisch
# pipeline trips this test before anything else.
# (The serve-side precision dial is covered by serve_regressions, which
# runs in the workspace test steps and pins one and four shards itself.)
echo "== precision gate: emulated FP64 vs softfloat FMA reference (release)"
cargo test --release -q --test differential_props \
    fp64_emulated_matches_softfloat_fma_reference_within_envelope -- --exact

# BLAS-3 rank-k gate (release): SYRK/HERK must schedule exactly the
# T(T+1)/2 triangle of the T^2 output-tile grid — the executed counts
# match exact_counts_rank_k field-for-field, the instruction ratio
# clears its flop-saving floor, and in-triangle bits equal the full
# rank-k op-GEMM's.
echo "== BLAS-3 rank-k flop-saving gate (release)"
cargo test --release -q --test cross_validation \
    rank_k_updates_match_analytical_counts_and_halve_the_grid_executed -- --exact

# Soak mode: the same suites in release with a much longer random-shape
# sweep. Slow by design; not part of the default gate.
if [[ "${M3XU_SOAK:-0}" == "1" ]]; then
    for threads in 1 8; do
        echo "== SOAK: release, M3XU_PROP_CASES=200, M3XU_THREADS=${threads}"
        M3XU_THREADS=${threads} M3XU_PROP_CASES=200 cargo test --release -q \
            --test differential_props --test cross_validation \
            --test blas3_differential
    done
fi

echo "== OK"
