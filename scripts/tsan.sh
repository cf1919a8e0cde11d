#!/usr/bin/env bash
# Runs the concurrent test suites under ThreadSanitizer, which observes
# the *actual* memory orderings the hardware executes — the dynamic
# complement to the static atomics audit: the audit proves every
# ordering carries a `// ord(...)` tag that justifies it; TSan catches a
# justification that is wrong at runtime (a data race the Acquire/Release pairing fails to
# close).
#
# Best-effort by design: -Zsanitizer=thread needs a nightly toolchain
# with the rust-src component (to -Zbuild-std with sanitized std). When
# either is missing the script *skips with exit 0* and says so clearly.
set -uo pipefail
cd "$(dirname "$0")/.."

skip() {
    echo "tsan: SKIPPED — $1"
    echo "tsan: (install with: rustup toolchain install nightly && rustup +nightly component add rust-src)"
    exit 0
}

command -v rustup >/dev/null 2>&1 || skip "rustup not available"
rustup toolchain list 2>/dev/null | grep -q nightly || skip "no nightly toolchain installed"
rustup component list --toolchain nightly 2>/dev/null | grep -q "^rust-src.*(installed)" \
    || skip "nightly toolchain has no rust-src component (needed for -Zbuild-std)"

host="$(rustc -vV | sed -n 's/^host: //p')"
case "$host" in
    x86_64-*-linux-gnu|aarch64-*-linux-gnu|*-apple-darwin) ;;
    *) skip "ThreadSanitizer unsupported on host target $host" ;;
esac

echo "tsan: running concurrent suites on $host"
# TSan intercepts at the std::sync::atomic layer, which the kp-sync
# facade re-exports unchanged, so no special build of the facade is
# needed. Suppress the epoch-shim's intentional benign races if any
# surface as noise via TSAN_OPTIONS externally.
RUSTFLAGS="-Zsanitizer=thread ${RUSTFLAGS:-}" \
RUSTDOCFLAGS="-Zsanitizer=thread" \
cargo +nightly test -Zbuild-std --target "$host" -p kp-queue -p hazard -p idpool -p crossbeam-epoch
status=$?
if [ $status -ne 0 ]; then
    echo "tsan: FAILED" >&2
    exit $status
fi
echo "tsan: ok"
