#!/usr/bin/env bash
# CI entry point: builds and tests the repo in stages.
#
#   1. Release (+Werror)  — the full tier-1 suite; warnings are errors.
#      Then a forced-scalar lane: the numeric/exec/serving suites re-run
#      with D2STGNN_FORCE_BACKEND=scalar, proving the kernel-backend env
#      override reaches every layer and the scalar reference path stays
#      green on SIMD hosts.
#   2. ThreadSanitizer    — the execution-layer and tensor tests, to catch
#      data races in the thread pool and parallel kernels, plus the
#      strided-walk property suite (chunks that split rows at 4 threads).
#   3. Inference suite    — the inference session and the one serving core
#      (FleetServer, and BatchingServer, its one-lane front door) under TSan
#      (concurrent submitters), plus the overload/admission, checkpoint
#      hot-reload and load-generator suites and the fleet chaos drill
#      (FleetServerTest.ChaosDrill*: two SLO classes under open-loop
#      traffic with all four serving fault points armed and a mid-run hot
#      reload). The drill asserts only scheduler-independent invariants
#      (every future resolves once, work completes, every fault fires, both
#      lanes bitwise); its ctest TIMEOUT is the no-deadlock assertion.
#   4. Plan replay        — the capture/plan/replay suite under TSan
#      (level-parallel replays, concurrent plan-serving submitters; the
#      Release run happened in stage 1, where
#      ExecSessionTest.PlanReplayTakesNoPerOpBuffers checks by counting
#      arena buffers, not by timing, that a replay skips the per-op
#      eager work), then bench_micro_kernels writes a BENCH_kernels.json
#      under build/bench-out, shape-validated; the tracked repo-root
#      snapshot is left alone. Serving timings are the benchmark's
#      (perfbench/run.py), not CI's.
#   5. Experiments        — the declarative harness end to end: the smoke
#      training spec runs gated against its checked-in baseline, --list
#      enumerates the registry, and a run against an impossible baseline
#      must exit 2 with a readable violation diff.
#   6. UBSanitizer        — the full suite under -fsanitize=undefined.
#   7. ASan+UBSan         — the fault-injection / crash-safety suite
#      (checkpoints, durable I/O, divergence recovery, death tests), where
#      torn buffers and use-after-free bugs would hide, plus the
#      kernel-backend suite: the AVX2 masked head/tail loads and stores are
#      exactly where an out-of-bounds lane read would live. The op and
#      capture suites run here too: every op's forward closure does its own
#      pointer arithmetic over StepIo buffers, eagerly and on replay. So do
#      the MatMul property, gradient-reference and determinism suites: the
#      MatMul backward does its own offset arithmetic into gradient buffers.
#      So do the strided-walk property suite (the walk's fixed-size index
#      array and row offsets) and the gradient-adoption suite (gradient
#      buffers moved between tensors).
#   8. Plan verification  — tools/verify_plan under ASan+UBSan: every
#      registry model's captured plans must prove race- and lifetime-sound
#      (exit 0), and the --inject corrupted-plan fixture must be caught
#      (exit 2) — the verifier failing open fails CI loudly. The sweep runs
#      under both kernel backends: the default invocation captures under
#      the detected backend (avx2 on SIMD hosts), --backend scalar forces
#      the reference.
#   9. Corruption smoke   — end-to-end: train with checkpointing, flip one
#      byte in the newest checkpoint, assert resume rejects it.
#  10. Lint               — clang-tidy in parallel over src/, tests/, and
#      tools/ (skipped with a notice when clang-tidy is not installed).
#
# In a git checkout, CI must leave `git status --porcelain` as it found it:
# every output goes under an ignored build directory.
#
# Both ctest invocations pass --no-tests=error so a filter that matches zero
# tests (e.g. after a rename) fails CI instead of silently passing.
#
# Usage: scripts/ci.sh [--release-only]

set -euo pipefail
cd "$(dirname "$0")/.."

in_git=0
if git rev-parse --is-inside-work-tree > /dev/null 2>&1; then
  in_git=1
  tree_before="$(git status --porcelain)"
fi

echo "=== Release build (+Werror) + full test suite ==="
cmake -B build -S . -DCMAKE_BUILD_TYPE=Release -DD2STGNN_WERROR=ON
cmake --build build -j "$(nproc)"
ctest --test-dir build --output-on-failure -j "$(nproc)" --no-tests=error
# Forced-scalar lane: same binaries, kernel dispatch pinned to the scalar
# reference backend. Covers the tensor/kernel suites and every plan-capture
# and serving path that records backend-qualified closures.
D2STGNN_FORCE_BACKEND=scalar ctest --test-dir build --output-on-failure \
  -j "$(nproc)" \
  -R 'Tensor|Backend|UlpDiff|MemoryPlanner|ZooCapture|GraphCapture|ExecSession|InferSession' \
  --no-tests=error

if [[ "${1:-}" == "--release-only" ]]; then
  exit 0
fi

echo "=== ThreadSanitizer build + concurrency-sensitive tests ==="
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DD2STGNN_SANITIZE=thread
cmake --build build-tsan -j "$(nproc)" \
  --target thread_pool_test parallel_determinism_test tensor_test \
  property_test
ctest --test-dir build-tsan --output-on-failure -j "$(nproc)" \
  -R 'ThreadPool|ParallelDeterminism|Tensor|StridedWalk' --no-tests=error

echo "=== Inference suite: serving core + fleet chaos drill under TSan ==="
cmake --build build-tsan -j "$(nproc)" \
  --target infer_server_test infer_session_test overload_test \
  hot_reload_test fleet_test load_generator_test
ctest --test-dir build-tsan --output-on-failure -j "$(nproc)" \
  -R 'InferServer|InferSession|RejectReason|Admission|Overload|Backoff|HotReload|Fleet|ChaosDrill|LoadGenerator' \
  --no-tests=error

echo "=== Plan replay: exec suite under TSan + kernel bench JSON (validated copy) ==="
cmake --build build-tsan -j "$(nproc)" --target exec_plan_test
ctest --test-dir build-tsan --output-on-failure -j "$(nproc)" \
  -R 'MemoryPlanner|ZooCapture|GraphCapture|ExecSession' --no-tests=error
cmake --build build -j "$(nproc)" --target bench_micro_kernels
# Skip the google-benchmark section (nothing matches); the hand-timed sweep
# that feeds BENCH_kernels.json still runs, into the build tree.
D2STGNN_BENCH_OUT_DIR=build/bench-out \
  build/bench/bench_micro_kernels --benchmark_filter='^$' > /dev/null
python3 - build/bench-out/BENCH_kernels.json <<'EOF'
import json, sys
kernel_doc = json.load(open(sys.argv[1]))
assert kernel_doc["schema_version"] == 1
assert kernel_doc["records"], "BENCH_kernels.json has no records"
for r in kernel_doc["records"]:
    assert r["seconds_per_iter"] > 0, r
print("BENCH_kernels.json well-formed:", len(kernel_doc["records"]),
      "kernel records")
EOF

echo "=== Experiments: smoke spec end-to-end + regression-gate demo ==="
cmake --build build -j "$(nproc)" --target run_experiment
smoke_out="build/experiment-smoke"
rm -rf "$smoke_out"
mkdir -p "$smoke_out"
# The registry must enumerate cleanly, and the listing must surface the
# training axes the paper's tables cross.
list_output="$(build/tools/run_experiment --list)"
for needle in D2STGNN METR-LA; do
  if ! grep -q "$needle" <<< "$list_output"; then
    echo "FAIL: run_experiment --list does not mention '$needle'" >&2
    exit 1
  fi
done
# ...and the smoke training spec must run end to end, gated against its
# checked-in baseline (bench/baselines/smoke_training.json).
build/tools/run_experiment --out-dir "$smoke_out" \
  specs/smoke_training.spec > /dev/null
python3 - "$smoke_out/BENCH_smoke_training.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema_version"] == 1
assert doc["kind"] == "training"
models = {r["model"] for r in doc["records"]}
assert models == {"HA", "D2STGNN"}, models
for r in doc["records"]:
    assert r["h3_mae"] > 0 and r["h12_mae"] > 0, r
assert doc["summary"]["best_model"] in models
print("BENCH_smoke_training.json well-formed:", len(doc["records"]),
      "records")
EOF
# The gate must demonstrably fail: re-checking the same run against an
# impossible baseline has to exit 2 with a readable violation diff.
set +e
gate_output="$(build/tools/run_experiment --out-dir "$smoke_out" \
  --baseline bench/baselines/impossible.json specs/smoke_training.spec 2>&1)"
gate_status=$?
set -e
if [[ "$gate_status" -ne 2 ]]; then
  echo "FAIL: impossible baseline exited $gate_status, want 2" >&2
  echo "$gate_output" >&2
  exit 1
fi
if ! grep -q "regression gate FAILED" <<< "$gate_output"; then
  echo "FAIL: exit 2 without a readable gate diff" >&2
  echo "$gate_output" >&2
  exit 1
fi
echo "regression gate failed loudly as expected (exit 2)"

echo "=== UBSanitizer build + full test suite ==="
cmake -B build-ubsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DD2STGNN_SANITIZE=undefined
cmake --build build-ubsan -j "$(nproc)"
ctest --test-dir build-ubsan --output-on-failure -j "$(nproc)" \
  --no-tests=error

echo "=== ASan+UBSan build + fault-injection, op, capture, session, hot-reload, diffusion-block, optimizer, generator and admission suites ==="
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DD2STGNN_SANITIZE=address,undefined
cmake --build build-asan -j "$(nproc)" \
  --target fault_injection_test checkpoint_test death_test io_test \
  kernel_backend_test tensor_test op_gradcheck_test \
  exec_plan_test property_test parallel_determinism_test core_blocks_test \
  optim_test data_test overload_test infer_session_test hot_reload_test
ctest --test-dir build-asan --output-on-failure -j "$(nproc)" \
  -R 'FaultInjection|CheckpointFault|CheckpointResume|DivergenceRecovery|Checkpoint|CsvLoader|DeathTest|Backend|UlpDiff|ElementwiseOps|MatMulOp|GradCheck|OpGradCheck|ZooCapture|GraphCapture|ExecSession|MatMulProperty|MatMulGradReference|ParallelDeterminism|StridedWalk|TensorGradAdoption|DiffusionBlock|AdamTest|ClipGradNorm|SyntheticTraffic|AdmissionController|InferSession|HotReload' \
  --no-tests=error

echo "=== Plan verification: registry-wide verify_plan under ASan+UBSan ==="
cmake --build build-asan -j "$(nproc)" --target verify_plan
# Every captured plan across the model registry must verify clean — once
# under the detected backend (avx2 on SIMD hosts) and once forced onto the
# scalar reference, so both backends' captured closures face the verifier.
build-asan/tools/verify_plan
build-asan/tools/verify_plan --backend scalar > /dev/null
echo "verify_plan clean under --backend scalar too"
# ...and each injected corruption class must be detected (exit 2; a missed
# corruption exits 0, failing this assertion).
set +e
build-asan/tools/verify_plan --inject
inject_status=$?
set -e
if [[ "$inject_status" -ne 2 ]]; then
  echo "FAIL: verify_plan --inject exited $inject_status, want 2" >&2
  echo "      (a corrupted plan slipped past the static verifier)" >&2
  exit 1
fi
echo "corrupted plans rejected as expected (exit 2)"

echo "=== Checkpoint corruption smoke (save -> corrupt -> resume rejects) ==="
smoke_dir="build/ckpt-smoke"
rm -rf "$smoke_dir"
mkdir -p "$smoke_dir"
build/examples/quickstart --checkpoint-dir "$smoke_dir" \
  --checkpoint-every 4 > /dev/null
latest="$(ls "$smoke_dir"/ckpt-*.d2ck | sort | tail -n 1)"
# An intact checkpoint resumes cleanly...
build/examples/quickstart --resume "$latest" > /dev/null
# ...and a single flipped byte must be detected and rejected.
printf '\x5a' | dd of="$latest" bs=1 seek=100 conv=notrunc status=none
if build/examples/quickstart --resume "$latest" > /dev/null 2>&1; then
  echo "FAIL: corrupt checkpoint was accepted on resume" >&2
  exit 1
fi
echo "corrupt checkpoint rejected as expected"

echo "=== Lint (clang-tidy) ==="
scripts/lint.sh build

if [[ "$in_git" -eq 1 && "$(git status --porcelain)" != "$tree_before" ]]; then
  echo "FAIL: CI changed the working tree:" >&2
  git status --porcelain >&2
  exit 1
fi

echo "CI OK"
