#!/usr/bin/env bash
# The repo's tier-1 gate plus lint and a chaos smoke, in one command:
#
#   1. release build + full workspace test suite (tier-1, see ROADMAP.md)
#   2. clippy with warnings denied, all targets
#   3. atomics audit: every atomic call site needs a `// ord(...)` tag
#      and every unsafe occurrence a SAFETY comment (see DESIGN.md SS11),
#      plus a self-test that the gate actually fails on an untagged atomic
#   4. the unit suites tier-1 does not reach (it covers only the root
#      package): the audit's own tests, the exhaustive kp-model, the
#      supporting crates, the epoch shim, kp-queue's full suite and the
#      harness
#   5. a short seeded chaos-torture smoke (fault-injection suite with a
#      reduced seed matrix; scripts/torture.sh runs the full sweep)
#   6. per-subsystem gates (fast path, wCQ, channel, overload), each a
#      set of filtered test runs
#   7. a time-capped kill/restart soak of the reaper rounds
#      (SOAK_SECS, default 120)
#   8. the repository benchmark's self-checks and a short traced run of
#      each workload (needs at least 2 cores; skips loudly otherwise),
#      and the unit tests of its A/B driver (scripts/ab.py)
#   9. best-effort sanitizer stages: Miri and ThreadSanitizer run when
#      the toolchain supports them, skip loudly when it does not
set -euo pipefail
cd "$(dirname "$0")/.."

# `cargo test "$@"` that also fails when it ran no test. Every filtered
# call goes through it, so a renamed or deleted test cannot silently
# empty a stage.
cargo_test_filtered() {
    local log status=0 ran
    log="$(mktemp)"
    cargo test "$@" 2>&1 | tee "$log" || status=$?
    ran=$(sed -nE 's/^test result: [a-zA-Z]+\. ([0-9]+) passed.*/\1/p' "$log" \
        | awk '{ n += $1 } END { print n + 0 }')
    rm -f "$log"
    if [ "$status" -ne 0 ]; then
        return "$status"
    fi
    if [ "$ran" -eq 0 ]; then
        echo "ci: FAIL -- cargo test $* ran no test" >&2
        return 1
    fi
}

echo "=== tier-1: release build + workspace tests ==="
cargo build --release
cargo test -q

echo "=== clippy (warnings denied) ==="
cargo clippy --workspace --all-targets -- -D warnings

echo "=== atomics audit (// ord(...) tags) ==="
cargo run -q -p atomics-audit

echo "=== atomics audit self-test (gate must fail on an untagged atomic) ==="
# Inject an untagged atomic into a scratch copy of the crates and assert
# the gate goes red. Guards against the failure mode where the scanner
# silently matches nothing and "passes" an empty audit. All of crates/
# is copied, so the scope list lives only in the audit crate.
selftest_dir="$(mktemp -d)"
trap 'rm -rf "$selftest_dir"' EXIT
cp -r crates "$selftest_dir/"
cat >> "$selftest_dir/crates/idpool/src/lib.rs" <<'EOF'

fn _audit_selftest_undocumented(x: &kp_sync::atomic::AtomicUsize) -> usize {
    x.load(kp_sync::atomic::Ordering::SeqCst)
}
EOF
if cargo run -q -p atomics-audit -- --root "$selftest_dir" >/dev/null 2>&1; then
    echo "ci: FAIL — audit passed despite an injected untagged atomic" >&2
    exit 1
fi
echo "self-test ok: injected atomic was caught"

echo "=== crate unit suites (not in tier-1) ==="
# The audit's rule and tag-binder tests plus model_xref (linearization
# tags against kp-model's step names), the exhaustive SS3.1 model, and
# the supporting crates' own suites.
cargo test --release -q -p atomics-audit -p hazard -p idpool -p kp-model -p linearize \
    -p ms-queue -p queue-traits -p kp-sync -p alloc-track -p chaos

echo "=== epoch shim (shims/crossbeam-epoch) ==="
# The reclamation engine under the KP epoch variant: pin/unpin, the
# advance rules (including the early exit of a thread pinned behind the
# global epoch), quarantine, and participant tokens.
cargo test -p crossbeam-epoch --release -q

echo "=== kp-queue engine (crates/kp-queue) ==="
# The Kogan-Petrank core and both reclamation backends: every unit suite
# (descriptor packing, pool, retire cache, epoch and hazard-pointer
# queues) and the allocation-regression gate (alloc_regression.rs).
cargo test -p kp-queue --release -q

echo "=== harness (crates/harness) ==="
# The figure harness's unit tests: workloads, scheduler policies,
# variants, the sweep driver, reports, statistics and the space probe.
cargo test -p harness --release -q

echo "=== chaos smoke (seeded fault injection) ==="
cargo test --features chaos --release -q --test torture

echo "=== fast-path matrix (DESIGN.md SS12) ==="
# The fast-path/slow-path split, end to end: the kp-queue unit tests
# whose names mention `fast` (both reclamation backends), mixed
# fast/slow linearizability rounds, and the mid-demotion crash cases
# from the chaos suite.
cargo_test_filtered -p kp-queue --release -q fast
cargo_test_filtered --release -q --test linearizability wf_fast
cargo_test_filtered --features chaos --release -q --test torture demotion

echo "=== wCQ engine gate (DESIGN.md SS14) ==="
# The bounded ring-buffer engine, end to end: its unit suite (SCQ
# packing/wraparound proptests included), seeded linearizability churn
# (fast, slow-only and tiny-ring rounds), the chaos kill matrix at every
# wcq.* site, and the bounded-memory gate (zero allocation under a
# stalled reader, where the KP engines' backlog grows).
cargo test -p wcq --release -q
cargo_test_filtered --release -q --test linearizability wcq
cargo_test_filtered --features chaos --release -q --test torture wcq
cargo test --release -q --test memory_bound

echo "=== channel gate (DESIGN.md SS15) ==="
# The sharded channel front-end, end to end: the crate's unit suite,
# the cross-engine integration tests (blocking, batched and async
# receive over both shard cores), and the seeded chaos rounds --
# FIFO-per-producer under stalls and the parked-receiver lost-wakeup
# hunt at the chan.{route,batch,park,wake} sites.
cargo test -p kp-channel --release -q
cargo test --release -q --test channel
cargo_test_filtered --features chaos --release -q --test torture channel

echo "=== overload gate (DESIGN.md SS16) ==="
# Overload control, end to end: deadline accuracy (never early), parked
# bounded send, admission control bounding the unbounded engines'
# backlog (the alloc-track gate inside memory_bound), quarantine
# detect/readmit + the full-quarantined-shard send_batch regression,
# and the seeded chaos rounds -- the parked-sender lost-wakeup hunt at
# chan.{send_park,wake}, deadline accuracy under stalls, and the
# kill-mid-quarantine recovery round.
cargo test --release -q --test overload
# One run per name, so that each name must still match a test.
for name in channel_parked_senders_never_lose_wakeups \
    channel_deadlines_never_fire_early_under_seeded_stalls \
    channel_quarantine_survives_consumer_killed_mid_drain; do
    cargo_test_filtered --features chaos --release -q --test torture "$name"
done

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
    cargo_test_filtered --features chaos --release -q --test torture reap \
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
# Built first on every host, so even a 1-core host catches a break in
# the kp_queue API the benchmark compiles against.
cargo build --release --offline --manifest-path perfbench/Cargo.toml
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

echo "=== A/B driver (scripts/ab.py) ==="
# The acceptance rule's arithmetic: quartiles against perfbench's own
# vectors, wins and ties, the gain, regression and unresolved verdicts,
# and the tree-derived seeds. Runs no benchmark.
python3 -m unittest scripts/test_ab.py

echo "=== miri (best-effort) ==="
scripts/miri.sh || { echo "ci: miri stage failed" >&2; exit 1; }

echo "=== thread sanitizer (best-effort) ==="
scripts/tsan.sh || { echo "ci: tsan stage failed" >&2; exit 1; }

echo "ci: all gates green"
