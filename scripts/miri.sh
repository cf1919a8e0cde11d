#!/usr/bin/env bash
# Runs the core single-/few-thread test suites under Miri, which checks
# the unsafe code (raw node pointers, UnsafeCell payloads, hazard slots)
# against Rust's aliasing and initialization rules and catches some
# memory-ordering bugs via its weak-memory emulation.
#
# Best-effort by design: Miri is a nightly rustup component that this
# container cannot always install (no network). When the component is
# missing the script *skips with exit 0* and says so clearly — CI treats
# a skip as success, a real Miri failure as red.
#
# Scope: kp-queue, hazard, idpool and epoch-shim unit tests. The long
# stress tests are excluded via the filters below — Miri runs them ~100x
# slower than native and the sanitizer stage covers the concurrency
# angle natively.
set -uo pipefail
cd "$(dirname "$0")/.."

skip() {
    echo "miri: SKIPPED — $1"
    echo "miri: (install with: rustup toolchain install nightly && rustup +nightly component add miri)"
    exit 0
}

command -v rustup >/dev/null 2>&1 || skip "rustup not available"
rustup toolchain list 2>/dev/null | grep -q nightly || skip "no nightly toolchain installed"
rustup component list --toolchain nightly 2>/dev/null | grep -q "^miri.*(installed)" \
    || skip "nightly toolchain has no miri component"

echo "miri: running core suites (this is slow)"
# Isolation stays on (the default) — the shims are deterministic and the
# filtered tests do no real I/O. Skip the known stress/timing tests.
MIRIFLAGS="${MIRIFLAGS:-}" cargo +nightly miri test -p kp-queue -p hazard -p idpool -p crossbeam-epoch -- \
    --skip stress --skip torture --skip contention --skip concurrent
status=$?
if [ $status -ne 0 ]; then
    echo "miri: FAILED" >&2
    exit $status
fi
echo "miri: ok"
