#!/usr/bin/env bash
# The repo's tier-1 gate plus lint and a chaos smoke, in one command:
#
#   1. release build + full workspace test suite (tier-1, see ROADMAP.md)
#   2. clippy with warnings denied, all targets
#   3. atomics audit: every atomic call site and unsafe occurrence must
#      match ATOMICS.toml (see DESIGN.md SS11), plus a self-test that the
#      gate actually fails on an undocumented atomic
#   4. the epoch shim's unit tests (tier-1 covers only the root package)
#   5. a short seeded chaos-torture smoke (fault-injection suite with a
#      reduced seed matrix; scripts/torture.sh runs the full sweep)
#   6. a time-capped kill/restart soak of the reaper rounds
#      (SOAK_SECS, default 120)
#   7. the repository benchmark's self-checks and a short traced run of
#      each workload (needs at least 2 cores; skips loudly otherwise)
#   8. best-effort sanitizer stages: Miri and ThreadSanitizer run when
#      the toolchain supports them, skip loudly when it does not
set -euo pipefail
cd "$(dirname "$0")/.."

echo "=== tier-1: release build + workspace tests ==="
cargo build --release
cargo test -q

echo "=== clippy (warnings denied) ==="
cargo clippy --workspace --all-targets -- -D warnings

echo "=== atomics audit (ATOMICS.toml manifest) ==="
cargo run -q -p atomics-audit

echo "=== atomics audit self-test (gate must fail on an undocumented atomic) ==="
# Inject an unlisted atomic into a scratch copy of the audited tree and
# assert the gate goes red. Guards against the failure mode where the
# scanner silently matches nothing and "passes" an empty audit.
selftest_dir="$(mktemp -d)"
trap 'rm -rf "$selftest_dir"' EXIT
mkdir -p "$selftest_dir/crates"
cp -r crates/kp-queue crates/hazard crates/idpool crates/wcq crates/kp-channel "$selftest_dir/crates/"
cat >> "$selftest_dir/crates/idpool/src/lib.rs" <<'EOF'

fn _audit_selftest_undocumented(x: &kp_sync::atomic::AtomicUsize) -> usize {
    x.load(kp_sync::atomic::Ordering::SeqCst)
}
EOF
if cargo run -q -p atomics-audit -- --root "$selftest_dir" --manifest ATOMICS.toml >/dev/null 2>&1; then
    echo "ci: FAIL — audit passed despite an injected undocumented atomic" >&2
    exit 1
fi
echo "self-test ok: injected atomic was caught"

echo "=== epoch shim (shims/crossbeam-epoch) ==="
# The reclamation engine under the KP epoch variant: pin/unpin, the
# advance rules (including the early exit of a thread pinned behind the
# global epoch), quarantine, and participant tokens.
cargo test -p crossbeam-epoch --release -q

echo "=== chaos smoke (seeded fault injection) ==="
cargo test --features chaos --release -q --test torture

echo "=== fast-path matrix (DESIGN.md SS12) ==="
# The fast-path/slow-path split, end to end: unit suites in both
# variants, the harness fast variants, mixed fast/slow linearizability
# rounds, and the mid-demotion crash cases from the chaos suite.
cargo test -p kp-queue --release -q fast
cargo test -p harness --release -q --lib fast
cargo test --release -q --test linearizability wf_fast
cargo test --features chaos --release -q --test torture demotion

echo "=== wCQ engine gate (DESIGN.md SS14) ==="
# The bounded ring-buffer engine, end to end: its unit suite (SCQ
# packing/wraparound proptests included), seeded linearizability churn
# (fast, slow-only and tiny-ring rounds), the chaos kill matrix at every
# wcq.* site, and the bounded-memory gate (zero allocation under a
# stalled reader, where the KP engines' backlog grows).
cargo test -p wcq --release -q
cargo test --release -q --test linearizability wcq
cargo test --features chaos --release -q --test torture wcq
cargo test --release -q --test memory_bound

echo "=== channel gate (DESIGN.md SS15) ==="
# The sharded channel front-end, end to end: the crate's unit suite,
# the cross-engine integration tests (blocking, batched and async
# receive over both shard cores), and the seeded chaos rounds --
# FIFO-per-producer under stalls and the parked-receiver lost-wakeup
# hunt at the chan.{route,batch,park,wake} sites.
cargo test -p kp-channel --release -q
cargo test --release -q --test channel
cargo test --features chaos --release -q --test torture channel

echo "=== overload gate (DESIGN.md SS16) ==="
# Overload control, end to end: deadline accuracy (never early), parked
# bounded send, admission control bounding the unbounded engines'
# backlog (the alloc-track gate inside memory_bound), quarantine
# detect/readmit + the full-quarantined-shard send_batch regression,
# and the seeded chaos rounds -- the parked-sender lost-wakeup hunt at
# chan.{send_park,wake}, deadline accuracy under stalls, and the
# kill-mid-quarantine recovery round.
cargo test --release -q --test overload
cargo test --features chaos --release -q --test torture -- \
    channel_parked_senders_never_lose_wakeups \
    channel_deadlines_never_fire_early_under_seeded_stalls \
    channel_quarantine_survives_consumer_killed_mid_drain

echo "=== soak: kill/restart with the reaper on (DESIGN.md SS13) ==="
# Time-capped repetition of the abandoned-handle rounds: sudden-death
# kills at enqueue/dequeue/demotion sites with reaping, adoption,
# takeover and quarantine asserted by the tests themselves. The seeded
# storms are fixed per test; the soak value is re-running the whole
# matrix under fresh OS scheduling until the cap. scripts/torture.sh
# runs the full (non-reap) site sweep.
soak_deadline=$(( $(date +%s) + ${SOAK_SECS:-120} ))
soak_rounds=0
while [ "$(date +%s)" -lt "$soak_deadline" ]; do
    cargo test --features chaos --release -q --test torture reap \
        || { echo "ci: FAIL — soak round $soak_rounds" >&2; exit 1; }
    soak_rounds=$((soak_rounds + 1))
done
echo "soak ok: $soak_rounds round(s) within ${SOAK_SECS:-120}s"

echo "=== perfbench (BENCHMARK.json) ==="
# The benchmark package's own tests (its exactly-once/FIFO checker must
# flag injected lost, duplicated and reordered values), then a 2 s
# traced run of each workload, which must exit 0: a delivery violation
# exits 1. perfbench refuses to run on fewer than 2 cores, because
# every workload keeps two threads busy.
if [ "$(nproc)" -lt 2 ]; then
    echo "perfbench: SKIPPED -- $(nproc) core(s) in the affinity mask, perfbench needs 2"
else
    cargo test --release --offline --manifest-path perfbench/Cargo.toml
    for workload in pairs stream bursty; do
        cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
            --bursty-rate 500000 --bursty-burst 256 --bursty-quota 1024 \
            --workload "$workload" --seed 1 --seconds 2 --trace 1 \
            || { echo "ci: FAIL -- perfbench $workload" >&2; exit 1; }
        echo "perfbench $workload ok"
    done
fi

echo "=== miri (best-effort) ==="
scripts/miri.sh || { echo "ci: miri stage failed" >&2; exit 1; }

echo "=== thread sanitizer (best-effort) ==="
scripts/tsan.sh || { echo "ci: tsan stage failed" >&2; exit 1; }

echo "ci: all gates green"
