#!/usr/bin/env python3
"""Regenerates ATOMICS.toml from `cargo run -p atomics-audit -- --dump`.

The audit manifest is a *reviewed* artifact: the `role`, `why`, `sc`,
and `model_steps` fields below are the human-maintained content, and
this script is how they survive a refactor that moves call sites. Run:

    cargo run -p atomics-audit -- --dump > /tmp/skeleton.toml
    python3 scripts/gen_atomics_manifest.py /tmp/skeleton.toml > ATOMICS.toml
    cargo run -p atomics-audit        # must be clean

A site the table below does not know is a hard error — new atomics must
be annotated here (or directly in ATOMICS.toml) before the gate passes.
"""
import re
import sys

# ---------------------------------------------------------------------
# Shared justification strings
# ---------------------------------------------------------------------

SC_HELP = (
    "helping coherence: this read participates in the Lemma 1/2 argument and "
    "must agree with the descriptors' SeqCst pending checks in the single total "
    "order; the DESIGN.md SS11 counterexamples show Acquire losing operations"
)
SC_DOORWAY = (
    "bakery doorway: the phase announcement must be totally ordered with peers' "
    "maxPhase scans or a helper can overlook an older pending operation, "
    "breaking the wait-freedom bound (DESIGN.md SS11)"
)
SC_RESET = (
    "no-op-skip recycling counterexample (DESIGN.md SS11): a helper still "
    "scanning must not act on a stale pending descriptor after the owner "
    "recycled the node; the idle transition must enter the total order"
)
SC_APPEND = (
    "linearization point of enqueue (L74): total order with the SeqCst pending "
    "checks gives Lemma 1's exactly-once append; failure ordering is Relaxed "
    "because the loaded value is discarded and helpers re-read with SeqCst"
)
SC_LOCK = (
    "linearization point of a successful dequeue (L135): the deq_tid lock must "
    "be totally ordered with the helpers' pending checks (Lemma 2 exactly-once); "
    "failure value discarded, re-read with SeqCst"
)
SC_CTRL = (
    "the exactly-once descriptor transition (step 2 of Figures 5-6) must be "
    "coherent with helpers' SeqCst pending checks (Lemmas 1-2); failure value "
    "unused (.is_ok()) so the failure ordering is Relaxed"
)
SC_SWING = (
    "tail/head swing races with the same CAS from every helper; SeqCst keeps "
    "the swing ordered with the pending checks so a helper never operates on a "
    "retired sentinel; failure discarded"
)
SC_TOKEN = (
    "reap token handoff (DESIGN.md SS13.4): token publication, retraction and "
    "the reaper's swap must share the single total order with the lease "
    "transitions, or a reaper could quarantine a token published after "
    "revocation (erasing a live pin, a use-after-free) or miss a retraction "
    "and quarantine the recycled slot's live successor thread"
)
SC_HAZARD_SCAN = (
    "hazard-pointer scan requirement: the scan's reads must follow the "
    "retiree's unlink in the total order (store-load), or the scan can miss a "
    "hazard a racing protect() already validated"
)
SC_HAZARD_PUB = (
    "Dekker-style store-load: the hazard publication must precede the "
    "validating re-read in the total order; Release is insufficient"
)
SC_QUIESCENT = (
    "quiescent-only diagnostic off every hot path; SeqCst chosen for "
    "simplicity over a caller-trusted Relaxed walk"
)

SC_WCQ = (
    "SCQ cross-variable agreement (DESIGN.md SS14): tail/head tickets, ring "
    "entries and the threshold are separate atomics read in store-load pairs "
    "(FAA ticket then entry, entry install then threshold, catchup then "
    "decrement); SeqCst keeps every pair in the single total order -- "
    "Acquire/Release admits the reordering that breaks the emptiness "
    "argument. SeqCst loads are free on x86 and the RMWs are lock-prefixed "
    "at any ordering"
)
SC_CHAN_DEKKER = (
    "channel waker protocol (DESIGN.md SS15): the sleepers gauge and the shard "
    "contents form a Dekker-style store-load pair -- a receiver registers "
    "(gauge up) then re-checks every shard, a sender enqueues then checks the "
    "gauge -- and both sides must share the single total order, or a sender "
    "can read gauge==0 while the receiver's re-check misses the value: a "
    "lost wakeup with the receiver parked forever. Acquire/Release admits "
    "exactly that reordering"
)

SC_PARK_DEKKER = (
    "waiter-registry doorway (DESIGN.md SS15/SS16): the sleepers gauge and the "
    "guarded condition (shard contents for receivers, free capacity for "
    "senders) form a Dekker-style store-load pair -- a waiter registers "
    "(gauge up) then re-checks the condition, a notifier makes the condition "
    "true then reads the gauge -- and both sides must share the single total "
    "order or the notifier can read gauge==0 while the waiter's re-check "
    "misses the change: a lost wakeup with the waiter parked forever. "
    "Acquire/Release admits exactly that reordering"
)

SC_WCQ_REC = (
    "wCQ record handshake (DESIGN.md SS14): the owner's arg/gauge/ctrl "
    "publication and the helpers' gauge-probe/ctrl-scan/arg-dispatch reads "
    "form a Dekker-style store-load pair, and the seq/ring echo that rejects "
    "mixed-generation reads only works if both sides share the single total "
    "order; CAS failure values are re-read, so failure orderings are Relaxed "
    "unless the failure value itself is re-tested"
)

WHY_TEST = "test scaffolding"
WHY_INIT = "single-threaded initialisation before the structure is shared"
WHY_TEARDOWN = "exclusive (&mut) teardown; no concurrent access remains"
WHY_RECYCLE = "re-initialises a recycled node while exclusively owned, before republication"

# ---------------------------------------------------------------------
# Annotation table
# ---------------------------------------------------------------------
# Key: (file, fn) -> either a single spec or {(op, index): spec}.
# Spec: dict(role=..., why=..., sc=..., steps=[...]); sc/steps optional.


def spec(role, why, sc=None, steps=None):
    return {"role": role, "why": why, "sc": sc, "steps": steps or []}


D = "crates/hazard/src/domain.rs"
P = "crates/hazard/src/participant.rs"
R = "crates/hazard/src/retired.rs"
HT = "crates/hazard/src/tests.rs"
HI = "crates/hazard/tests/integration.rs"
ID = "crates/idpool/src/lib.rs"
DESC = "crates/kp-queue/src/desc.rs"
Q = "crates/kp-queue/src/queue.rs"
EP = "crates/kp-queue/src/epoch.rs"
HZ = "crates/kp-queue/src/hazard.rs"
ST = "crates/kp-queue/src/stats.rs"
QT = "crates/kp-queue/src/tests.rs"
NO = "crates/kp-queue/src/node.rs"
AR = "crates/kp-queue/tests/alloc_regression.rs"
EX = "crates/kp-queue/examples/hp_stress_probe.rs"
PO = "crates/kp-queue/src/pool.rs"
HTE = "crates/kp-queue/src/hp_tests.rs"
CH = "crates/kp-channel/src/lib.rs"
PK = "crates/kp-channel/src/park.rs"
OV = "crates/kp-channel/src/overload.rs"
W = "crates/wcq/src/lib.rs"
WR = "crates/wcq/src/ring.rs"
WT = "crates/wcq/src/tests.rs"

TABLE = {
    # ----- hazard/domain.rs ------------------------------------------
    (D, "total_slots"): spec(
        "reclamation",
        "sizes the hazard snapshot; Acquire pairs with enter's record-publishing AcqRel fetch_add",
    ),
    (D, "enter"): {
        ("load", 0): spec("reclamation", "record-list head read; Acquire makes each record's fields visible before the reuse probe"),
        ("load", 1): spec("reclamation", "speculative availability probe; the claim itself is the CAS below"),
        ("compare_exchange", 0): spec("reclamation", "claims a retired record: AcqRel acquires the previous owner's slot clears and publishes the claim; a failed probe carries no data dependency"),
        ("load", 2): spec("reclamation", "re-reads the list head for the publish CAS"),
        ("compare_exchange", 1): spec("reclamation", "publishes a new record; the failure Acquire is load-bearing: the retry writes the observed head into the record's plain `next`, which later traversers dereference, so the pointee's initialisation must be visible"),
        ("fetch_add", 0): spec("reclamation", "publishes the enlarged slot count; AcqRel orders it with the record push"),
    },
    (D, "collect_hazards_into"): spec("reclamation", "the scan's hazard snapshot", sc=SC_HAZARD_SCAN),
    (D, "take_orphans"): spec("reclamation", "adopts the orphan list: acquires the exiting thread's retirements, releases the emptied head"),
    (D, "push_orphans"): {
        ("load", 0): spec("reclamation", "orphan head read for the push CAS"),
        ("compare_exchange", 0): spec("reclamation", "publishes orphaned retirements; failure Acquire is load-bearing for the same plain-`next` republish reason as enter's record push"),
    },
    (D, "quarantine"): {
        ("load", 0): spec("reclamation", "record-list head read; Acquire makes each record's fields visible before the token match"),
        ("load", 1): spec("reclamation", "confirms the record is still active before clearing; the reaper's exclusivity comes from the lease election, not this load"),
        ("store", 0): spec("reclamation", "clears an abandoned hazard slot; SeqCst so the clear enters the total order before the next scan's snapshot (store-load, SS11.3) -- a weaker clear could let a dead record protect a node forever", sc=SC_HAZARD_SCAN),
        ("store", 1): spec("reclamation", "returns the quarantined record to the free pool; Release publishes the slot clears to the next claimant (pairs with enter's claim CAS)"),
    },
    (D, "drop"): spec("reclamation", WHY_TEARDOWN),
    (D, "fmt"): spec("stats", "Debug formatting; approximate values are fine"),
    # ----- hazard/participant.rs -------------------------------------
    (P, "set"): spec("reclamation", "publishes a hazard pointer", sc=SC_HAZARD_PUB),
    (P, "clear"): spec("reclamation", "un-publishes after the protected access; Release keeps the access before the clear"),
    (P, "protect"): {
        ("load", 0): spec("reclamation", "first read of the target pointer; Acquire so a non-null result dereferences an initialised object"),
        ("load", 1): spec("reclamation", "validation re-read ordered after the hazard store", sc=SC_HAZARD_PUB),
    },
    (P, "drop"): {
        ("store", 0): spec("reclamation", "clears remaining hazards before the record is recycled"),
        ("store", 1): spec("reclamation", "returns the record; Release publishes the slot clears to the next claimant (pairs with enter's claim CAS)"),
    },
    # ----- hazard/retired.rs (tests module) --------------------------
    (R, "drop"): spec("stats", WHY_TEST),
    (R, "reclaim_runs_drop"): spec("stats", WHY_TEST),
    (R, "record"): spec("stats", WHY_TEST),
    (R, "with_fn_forwards_the_context"): spec("stats", WHY_TEST),
    # ----- idpool ----------------------------------------------------
    (ID, "in_use"): spec("stats", "diagnostic count; Acquire gives a conservative snapshot"),
    (ID, "acquire"): {
        ("fetch_add", 0): spec("stats", "probe-start rotation hint; pure performance, no synchronization intent"),
        ("compare_exchange", 0): spec("doorway", "claims a virtual tid (SS3.3 long-lived renaming): success Acquire pairs with release's AcqRel swap so tid-associated state is visible to the new owner; a failed probe acquires nothing"),
    },
    (ID, "acquire_exact"): spec("doorway", "deterministic-tid variant of acquire; same pairing argument"),
    (ID, "release"): spec("doorway", "returns the tid (Claimed -> Free at the owner's generation); AcqRel publishes the owner's final writes to the next claimant and fails silently on a revoked lease -- the idpool double-release protection"),
    (ID, "inspect"): spec("doorway", "reaper-side lease snapshot; Acquire pairs with the claim/reap CASes so the observed state and generation travel together"),
    (ID, "try_claim"): {
        ("load", 0): spec("doorway", "speculative free-slot probe; the claim itself is the CAS below"),
        ("compare_exchange", 0): spec("doorway", "claims a virtual tid with a bumped generation (SS3.3 long-lived renaming made lease-based, DESIGN.md SS13.2): success Acquire pairs with release/finish_reap so tid-associated state is visible to the new owner; a failed probe acquires nothing"),
    },
    (ID, "begin_reap"): spec("doorway", "lease revocation CAS (Claimed -> Reaping at the observed generation, DESIGN.md SS13.2); AcqRel acquires the owner's published state and releases reap exclusivity to finish/takeover"),
    (ID, "finish_reap"): spec("doorway", "reap completion CAS (Reaping -> Free, bumped generation); the Release half publishes the reaper's cleanup to the slot's next claimant"),
    (ID, "takeover_reap"): spec("doorway", "reap adoption CAS (Reaping -> Reaping, bumped generation) invalidating a dead reaper's claim so a revived reaper cannot finish twice; same pairing as begin_reap"),
    (ID, "oversubscribed_acquire_never_duplicates"): spec("stats", WHY_TEST),
    (ID, "concurrent_reap_race_single_winner"): spec("stats", WHY_TEST),
    # ----- kp-queue/desc.rs ------------------------------------------
    (DESC, "load_ctrl"): spec("helper-guard", "caller-chosen ordering: SeqCst on help paths (pending-check coherence), Acquire in epilogues"),
    (DESC, "load_phase"): spec("doorway", "phase read for the Lemma-1 helping decision; callers pass SeqCst on hot paths"),
    (DESC, "view"): {
        ("load", 0): spec("helper-guard", "ctrl half of the (ctrl, phase) snapshot, caller-chosen ordering"),
        ("load", 1): spec("helper-guard", "phase half; publish stores phase before ctrl, so Acquire here sees the phase that belongs to the observed ctrl"),
    },
    (DESC, "publish"): {
        ("load", 0): spec("helper-guard", "own slot's version bits; the owner is the only writer between publishes"),
        ("store", 0): spec("doorway", "announces the operation's phase", sc=SC_DOORWAY),
        ("store", 1): spec("doorway", "descriptor becomes pending; must follow its phase in the total order", sc=SC_DOORWAY),
    },
    (DESC, "reset"): {
        ("load", 0): spec("helper-guard", "own slot's version bits; owner-only write window"),
        ("store", 0): spec("doorway", "idle-transition phase store", sc=SC_RESET),
        ("store", 1): spec("doorway", "idle-transition ctrl store", sc=SC_RESET),
    },
    (DESC, "cas_ctrl"): spec(
        "linearization",
        "the version-tagged exactly-once descriptor transition (step 2 of Figures 5-6)",
        sc=SC_CTRL,
        steps=["AckEnq", "AckDeq", "Stage0Empty", "Stage0NonEmpty", "Restage"],
    ),
    (DESC, "load_beat"): spec("stats", "heartbeat read for the freeze oracle (DESIGN.md SS13.3); Relaxed -- liveness detection needs recency, not ordering, and a missed bump only delays a reap by one patience window"),
    (DESC, "bump_beat"): spec("stats", "heartbeat bump (owner is the only writer); Relaxed for the same reason as load_beat"),
    (DESC, "bump_beat_shared"): spec("stats", "heartbeat bump from handle Drop, which may race a successor owner after a reap; a real RMW (unlike bump_beat's load+store) cannot swallow the successor's increment, and Relaxed suffices as for load_beat"),
    (DESC, "try_retire"): spec(
        "linearization",
        "the reap election CAS: blanks the victim's observed descriptor word exactly once, and the unique winner owns the destructive reap steps (orphaned result claim, quarantine) -- the claim-safety rule of DESIGN.md SS13.4",
        sc="the retirement must enter the single total order with helpers' SeqCst pending checks, or a helper could act on a blanked descriptor (and two stale-word reapers could both win the election)",
        steps=["ReapClaim"],
    ),
    # ----- kp-queue/queue.rs (the core, shared by both backends) -----
    # The head/tail reads opening each loop happen in the backend's
    # `protect` (epoch.rs below; the hazard backend's is
    # hazard::Participant::protect), the successor re-validation in the
    # hazard backend's `protect_next`.
    (Q, "head_next"): spec("stats", "advisory head and head.next reads under len_approx/is_empty (epoch pin) or len_approx_quiescent (quiescence); Acquire (release half of the append CAS) suffices to dereference initialised nodes"),
    (Q, "count_from_head"): spec("stats", "advisory O(n) walk; same argument as head_next"),
    (Q, "next_phase"): spec("doorway", "monotone phase ticket (SS3.3 AtomicCounter policy)", sc=SC_DOORWAY),
    (Q, "help_enq"): {
        ("load", 0): spec("helper-guard", "protected tail's next read (L70)", sc=SC_HELP),
        ("load", 1): spec("helper-guard", "tail re-validation before the append (L71)", sc=SC_HELP),
        ("compare_exchange", 0): spec("linearization", "the append CAS (L74)", sc=SC_APPEND, steps=["Append"]),
    },
    (Q, "help_finish_enq"): {
        ("load", 0): spec("helper-guard", "appended-node read (L87)", sc=SC_HELP),
        ("compare_exchange", 0): spec("helper-guard", "FAST_ENQUEUER branch: unconditional tail swing past a fast-appended node (no descriptor to ack; model FastFixTail)", sc=SC_SWING),
        ("load", 1): spec("helper-guard", "tail re-validation (L91)", sc=SC_HELP),
        ("compare_exchange", 1): spec("helper-guard", "tail swing (L94, model FixTail)", sc=SC_SWING),
    },
    (Q, "help_deq"): {
        ("load", 0): spec("helper-guard", "tail read for the empty/lag classification (L112)", sc=SC_HELP),
        ("load", 1): spec("helper-guard", "protected sentinel's next read (L113)", sc=SC_HELP),
        ("load", 2): spec("helper-guard", "head re-validation (L114)", sc=SC_HELP),
        ("load", 3): spec("helper-guard", "tail re-check before recording an empty result (L117)", sc=SC_HELP),
        ("load", 4): spec("helper-guard", "head consistency check before stage 0 (L129)", sc=SC_HELP),
        ("compare_exchange", 0): spec("linearization", "the deq_tid lock CAS (L135)", sc=SC_LOCK, steps=["Lock"]),
    },
    (Q, "help_finish_deq"): {
        ("load", 0): spec("helper-guard", "protected sentinel's next read (L143)", sc=SC_HELP),
        ("load", 1): spec("helper-guard", "deq_tid read identifying the lock owner (L144)", sc=SC_HELP),
        ("load", 2): spec("helper-guard", "FAST_DEQUEUER branch: head re-validation before the helper-side swing (no descriptor to ack)", sc=SC_HELP),
        ("compare_exchange", 0): spec("helper-guard", "FAST_DEQUEUER branch: head swing past a fast-locked sentinel (model FastFixHead); winner owns its retirement", sc=SC_SWING),
        ("load", 3): spec("helper-guard", "head re-validation (L147)", sc=SC_HELP),
        ("compare_exchange", 1): spec("helper-guard", "head swing (L150, model FixHead); winner owns sentinel retirement", sc=SC_SWING),
    },
    (Q, "try_fast_enqueue"): {
        ("load", 0): spec("helper-guard", "fast-path protected tail's next read classifying settled vs dangling", sc=SC_HELP),
        ("load", 1): spec("helper-guard", "fast-path tail re-validation before acting on the next read", sc=SC_HELP),
        ("compare_exchange", 0): spec("linearization", "the fast append CAS -- same L74 linearization point as the slow path, reached without a descriptor", sc=SC_APPEND, steps=["FastAppend"]),
        ("compare_exchange", 1): spec("helper-guard", "owner's best-effort tail swing (model FastFixTail); helpers' FAST_ENQUEUER branch races the same CAS", sc=SC_SWING),
    },
    (Q, "try_fast_dequeue"): {
        ("load", 0): spec("helper-guard", "fast-path tail read for the empty/lag classification", sc=SC_HELP),
        ("load", 1): spec("linearization", "fast-path protected sentinel's next read; with first == last, observing null here is the empty-dequeue linearization: the protected sentinel's next is write-once, so a null next proves nothing was appended after it and head cannot have moved past it", sc=SC_HELP, steps=["FastEmpty"]),
        ("compare_exchange", 0): spec("linearization", "the fast deq_tid lock CAS (FAST_DEQUEUER marker) -- same L135 linearization point as the slow path", sc=SC_LOCK, steps=["FastLock"]),
        ("compare_exchange", 1): spec("helper-guard", "owner's best-effort head swing (model FastFixHead); winner retires the unlinked sentinel", sc=SC_SWING),
    },
    (Q, "reap_slot"): spec("reclamation", "takes the victim's reclamation token exactly once (zeroing the slot) so a later reap of the slot's next lease cannot quarantine a stale token", sc=SC_TOKEN),
    (Q, "append_no_swing"): {
        ("load", 0): spec("helper-guard", "test-only lagging-tail fixture (sudden-death wedge, DESIGN.md SS13.1): protected tail's next read classifying settled vs dangling", sc=SC_HELP),
        ("load", 1): spec("helper-guard", "test-only fixture: tail re-validation before acting on the next read", sc=SC_HELP),
        ("compare_exchange", 0): spec("linearization", "test-only fixture: the fast append CAS without the step-3 tail swing -- same L74 linearization point as try_fast_enqueue", sc=SC_APPEND, steps=["FastAppend"]),
    },
    (Q, "drop"): spec("reclamation", WHY_TEARDOWN),
    # ----- kp-queue/epoch.rs (epoch backend) --------------------------
    (EP, "announce"): spec("reclamation", "publishes the handle's epoch-participant token for a future reap (DESIGN.md SS13.4)", sc=SC_TOKEN),
    (EP, "protect"): spec("helper-guard", "the head/tail read opening every help and fast-path loop (L69, L86, L111, L142); the operation's pin already protects the node", sc=SC_HELP),
    (EP, "quarantine"): spec("reclamation", "publisher scan (DESIGN.md SS13.4): spares the quarantine when any live handle still publishes the victim's token", sc="the scan must be ordered after this reaper's own token swap in the single total order with every other reaper's swap+scan and every handle's publish-before-pin, or two racing reapers could both see the other's not-yet-swapped victim entry and both skip a genuinely wedged quarantine"),
    (EP, "exit"): spec("reclamation", "retracts the epoch token after the exit's unpin, before the id can recycle; mirrors announce's publication", sc=SC_TOKEN),
    # ----- kp-queue/hazard.rs (hazard-pointer backend) ----------------
    (HZ, "enter"): spec("reclamation", "publishes the new participant's hazard-record token for a future reap (DESIGN.md SS13.4)", sc=SC_TOKEN),
    (HZ, "protect_next"): spec("reclamation", "validating head/tail re-read after publishing the successor's hazard: the anchor still in place proves the successor was not retired", sc=SC_HAZARD_PUB),
    (HZ, "consume"): spec("reclamation", "owner's half of the two-token disposal gate; AcqRel makes exactly one side observe both tokens and free the node"),
    (HZ, "reclaim_into_pool"): spec("reclamation", "scan's half of the two-token disposal gate; AcqRel mirrors consume"),
    (HZ, "exiting"): spec("reclamation", "retracts the hazard-record token before the exit cleanup, before the id can recycle; mirrors enter's publication", sc=SC_TOKEN),
    (HZ, "token_gate_disposes_exactly_once"): spec("stats", "test drives the two-token gate directly"),
    # ----- kp-queue/stats.rs -----------------------------------------
    (ST, "bump"): spec("stats", "single-writer counter bump: only the handle holding the block's tid writes it, so a Relaxed load + store replaces the RMW (stats.rs module docs); no synchronization intent"),
    (ST, "get"): spec("stats", "counter read for snapshots and the advisory depth/drain/pressure gauges; Relaxed per-cell reads summed across tids -- exact at quiescence, stale by in-flight ops under load, no cross-counter consistency promised"),
    # ----- kp-queue tests / examples ---------------------------------
    (QT, "drop"): spec("stats", WHY_TEST),
    (QT, "drop_releases_resident_values"): spec("stats", WHY_TEST),
    (HTE, "drop"): spec("stats", WHY_TEST),
    (HTE, "values_dropped_exactly_once"): spec("stats", WHY_TEST),
    (HTE, "fast_path_values_dropped_exactly_once"): spec("stats", WHY_TEST),
    (NO, "sentinel"): spec("reclamation", WHY_INIT),
    (NO, "reuse"): spec("reclamation", WHY_RECYCLE),
    (NO, "fresh_node_is_unlocked"): spec("stats", WHY_TEST),
    (NO, "fresh_nodes_start_ungated"): spec("stats", WHY_TEST),
    (NO, "sentinels_are_born_consumed"): spec("stats", WHY_TEST),
    (NO, "free_next"): spec("reclamation", "pool link through an unreachable node's next (matured, or released by the token gate), read by its exclusive owner (stealer or pool teardown); Relaxed -- the pool's Release CAS / Acquire swap order it"),
    (NO, "set_free_next"): spec("reclamation", "relinks an unreachable, exclusively owned node's next into a pool chain before the pool's Release CAS publishes it"),
    (AR, "contended_window_allocs"): spec("stats", "test marker delimiting the measured allocation window"),
    (AR, "split_window_allocs"): spec("stats", "test scaffolding: credit window between the split test's producer and consumer threads"),
    (AR, "alternating_batch_allocs"): spec("stats", "test scaffolding: turn word handing each batch between the alternating test's producer and consumer threads"),
    (EX, "main"): spec("stats", "stress-probe progress reporting"),
    # ----- kp-queue/pool.rs (shared by both engines) -----------------
    (PO, "push_chain"): {
        ("load", 0): spec("reclamation", "bounded-pool size check; advisory"),
        ("load", 1): spec("reclamation", "head read for the push loop"),
        ("compare_exchange_weak", 0): spec("reclamation", "publishes the chain to the Treiber freelist; Release orders the last node's free link before publication; failed pushes retry with a fresh head read"),
        ("fetch_add", 0): spec("reclamation", "approximate freelist length"),
        ("fetch_add", 1): spec("stats", "memory-pressure backpressure counter (DESIGN.md SS13.5): nodes freed past the pool cap"),
    },
    (PO, "overflows"): spec("stats", "backpressure counter snapshot"),
    (PO, "steal"): {
        ("load", 0): spec("reclamation", "empty probe before the swap; Relaxed -- a stale non-null only costs a swap that finds nothing, a stale null defers the steal to the next call"),
        ("load", 1): spec("reclamation", "length read for the empty-pool repair; advisory"),
        ("store", 0): spec("reclamation", "resets a length a racing push left overcounted once the pool is seen empty; advisory bound only"),
        ("swap", 0): spec("reclamation", "takes the whole freelist; Acquire pairs with push_chain's Release (and its release sequence) so the links are visible"),
        ("store", 1): spec("reclamation", "approximate length reset"),
    },
    (PO, "empty_steal_repairs_an_overcounted_len"): spec("stats", WHY_TEST),
    # ----- hazard tests ----------------------------------------------
    (HT, "drop"): spec("stats", WHY_TEST),
    (HT, "retire_without_hazard_reclaims_on_scan"): spec("stats", WHY_TEST),
    (HT, "protected_object_survives_scan"): spec("stats", WHY_TEST),
    (HT, "threshold_triggers_automatic_scan"): spec("stats", WHY_TEST),
    (HT, "domain_drop_frees_orphans"): spec("stats", WHY_TEST),
    (HT, "orphans_adopted_by_next_scan"): spec("stats", WHY_TEST),
    (HT, "concurrent_stress_no_use_after_free"): spec("stats", WHY_TEST),
    (HT, "two_domains_are_isolated"): spec("stats", WHY_TEST),
    (HT, "quarantine_clears_abandoned_hazards_and_recycles_the_record"): spec("stats", WHY_TEST),
    (HI, "push"): spec("reclamation", "test fixture: Treiber push publishing nodes whose reclamation is under test"),
    (HI, "pop"): spec("reclamation", "test fixture: Treiber pop; failure Acquire re-reads the head it will traverse from"),
    (HI, "treiber_stack_conservation_under_contention"): spec("stats", WHY_TEST),
    (HI, "drop"): spec("stats", WHY_TEST),
    (HI, "retired_under_protection_survives_until_release_across_threads"): spec("stats", WHY_TEST),
    # ----- kp-channel/src/lib.rs (waker protocol + lifecycle) ---------
    (CH, "is_disconnected"): spec("stats", "advisory disconnect probe for callers; Acquire pairs with the latch store"),
    (CH, "try_sender"): {
        ("load", 0): spec("helper-guard", "refuses to mint on a closed channel; Acquire pairs with the latch store"),
        ("fetch_add", 0): spec("stats", "round-robin shard assignment ticket; pure routing, no synchronization intent"),
        ("fetch_add", 1): spec("helper-guard", "sender refcount up; Relaxed -- minting is ordered by the &Channel borrow, the AcqRel decrement in sender_dropped carries the ordering"),
    },
    (CH, "try_receiver"): {
        ("load", 0): spec("helper-guard", "refuses to mint on a closed channel; Acquire pairs with the latch store"),
        ("fetch_add", 0): spec("helper-guard", "receiver refcount up, doubling as the sweep-cursor stagger ticket; Relaxed for the same reason as try_sender's"),
    },
    (CH, "register_waiter"): spec("doorway", "sleepers gauge up: the Dekker publication a sender's notify check must observe", sc=SC_CHAN_DEKKER),
    (CH, "cancel_waiter"): spec("doorway", "sleepers gauge down on withdrawal, balancing register_waiter under the registry lock", sc=SC_CHAN_DEKKER),
    (CH, "wake_one"): spec("doorway", "sleepers gauge down as the notifier pops a waiter; keeps the gauge equal to the registry length", sc=SC_CHAN_DEKKER),
    (CH, "notify_one"): spec("doorway", "sender-side Dekker check after an enqueue: a nonzero gauge means a receiver may have parked before the value landed", sc=SC_CHAN_DEKKER),
    (CH, "notify_many"): spec("doorway", "batch variant of notify_one's Dekker check; bounds the wake fan-out by the observed gauge", sc=SC_CHAN_DEKKER),
    (CH, "sender_dropped"): {
        ("fetch_sub", 0): spec("helper-guard", "last-sender detection: AcqRel so the ==1 winner observes every peer's sends before latching"),
        ("store", 0): spec("doorway", "the disconnect latch -- the point after which recv returns Disconnected; Release publishes it to the Acquire polls, and the wake_all broadcast re-checks it under the registry lock"),
    },
    (CH, "receiver_dropped"): {
        ("fetch_sub", 0): spec("helper-guard", "last-receiver detection: AcqRel mirror of sender_dropped"),
        ("store", 0): spec("doorway", "the send-side disconnect latch; senders poll it in their backpressure loops, so no broadcast is needed"),
    },
    (CH, "rx_closed"): spec("helper-guard", "send-path disconnect poll; Acquire pairs with the latch store"),
    (CH, "tx_closed"): spec("helper-guard", "recv-path disconnect poll; Acquire pairs with the latch store"),
    (CH, "fmt"): spec("stats", "Debug formatting; approximate values are fine"),
    (CH, "maybe_tick"): {
        ("load", 0): spec("stats", "tick-due probe on the watchdog's claim word; Relaxed -- recency not ordering, a stale read only delays a tick by one interval"),
        ("compare_exchange", 0): spec("helper-guard", "elects one tick claimant per interval (the threadless watchdog, DESIGN.md SS16.3); Relaxed is sound because the gauges the winner reads are advisory relaxed counters and the state machine publishes through ShardHealth's Release stores, not through this CAS"),
    },
    # ----- kp-channel/src/park.rs (waiter registry, both sides) -------
    (PK, "register"): {
        ("fetch_add", 0): spec("doorway", "sleepers gauge up under the registry lock: the Dekker publication a notifier's post-step gauge read must observe", sc=SC_PARK_DEKKER),
        ("fetch_add", 1): spec("stats", "total-parks counter for HealthSnapshot; no synchronization intent"),
    },
    (PK, "cancel"): spec("doorway", "sleepers gauge down on withdrawal, balancing register under the registry lock", sc=SC_PARK_DEKKER),
    (PK, "wake_one"): {
        ("fetch_sub", 0): spec("doorway", "sleepers gauge down as the notifier pops a waiter; keeps the gauge equal to the FIFO length", sc=SC_PARK_DEKKER),
        ("fetch_add", 0): spec("stats", "wake-tokens-spent counter for HealthSnapshot; no synchronization intent"),
    },
    (PK, "notify_many"): spec("doorway", "notifier-side Dekker check after the engine steps: a nonzero gauge means a waiter may have registered before the condition turned true; also bounds the wake fan-out", sc=SC_PARK_DEKKER),
    (PK, "sleepers"): spec("stats", "gauge snapshot for diagnostics and snapshot surfaces", sc="SeqCst matches the gauge's writers for simplicity; callers treat the value as advisory"),
    (PK, "park_count"): spec("stats", "parks-counter snapshot; Relaxed pairs with the Relaxed bump"),
    (PK, "wake_count"): spec("stats", "wakes-counter snapshot; Relaxed pairs with the Relaxed bump"),
    # ----- kp-channel/src/overload.rs (watchdog state machine) --------
    (OV, "state"): spec("helper-guard", "watchdog-state read; Acquire pairs with the Release transitions so a sender acting on Quarantined sees the transition's bookkeeping (baseline, probe pacing)"),
    (OV, "pressure_hot"): spec("helper-guard", "reads the tick claimant's pressure verdict; Acquire pairs with observe's Release store -- senders must not recompute the delta themselves (it would race the claimant's prev_pressure swap)"),
    (OV, "quarantine_count"): spec("stats", "quarantine-counter snapshot; Relaxed pairs with the Relaxed bump"),
    (OV, "probe_count"): spec("stats", "probe-counter snapshot; Relaxed pairs with the Relaxed bump"),
    (OV, "observe"): {
        ("swap", 0): spec("helper-guard", "per-tick pressure delta base: swap installs this tick's reading and returns the last; single tick claimant, so Relaxed suffices -- readers take the verdict from `hot`, never from this word"),
        ("store", 0): spec("helper-guard", "publishes the pressure verdict; Release so a sender's Acquire read observes a coherent flag"),
        ("store", 1): spec("helper-guard", "freeze-oracle baseline: drain counter at suspicion time; Relaxed -- only the tick claimant and the inline re-admission read it, both advisory"),
        ("store", 2): spec("helper-guard", "no-progress tick counter reset; tick-claimant-private between ticks"),
        ("store", 3): spec("helper-guard", "suspicion wall-clock stamp for the min_stall floor; tick-claimant-private"),
        ("store", 4): spec("helper-guard", "Healthy -> Suspect; Release publishes the baseline/stamp stores above to a future claimant's Acquire state read"),
        ("load", 0): spec("helper-guard", "baseline read for the progress check; Relaxed, advisory gauge comparison"),
        ("store", 5): spec("helper-guard", "Suspect -> Healthy (drain progressed or load receded); Release for symmetry with the other transitions"),
        ("fetch_add", 0): spec("helper-guard", "counts a no-progress tick toward the stall_ticks patience; tick-claimant-private between ticks"),
        ("load", 1): spec("helper-guard", "suspicion stamp read for the wall-clock floor; tick-claimant-private"),
        ("fetch_add", 1): spec("stats", "times-quarantined counter; no synchronization intent"),
        ("store", 6): spec("helper-guard", "paces the first probe a full interval out from the quarantine instant; claimed later by CAS in claim_probe"),
        ("store", 7): spec("helper-guard", "Suspect -> Quarantined; Release publishes the probe pacing and counters to senders' Acquire state reads"),
    },
    (OV, "try_readmit"): {
        ("load", 0): spec("helper-guard", "baseline read for the re-admission progress check; Relaxed, advisory gauge comparison"),
        ("compare_exchange", 0): spec("helper-guard", "Quarantined -> Healthy re-admission CAS, raced by the tick claimant and every refused sender (inline promptness); a CAS so exactly one winner reports the Readmitted event (and wakes the shard's parked senders); AcqRel publishes the winner's view, failure Acquire only observes the state"),
    },
    (OV, "claim_probe"): {
        ("load", 0): spec("helper-guard", "probe-due probe; Relaxed -- staleness only delays a probe"),
        ("compare_exchange", 0): spec("helper-guard", "elects one paced probe per interval among refused senders; Relaxed is sound -- the admitted value travels through the engine's own synchronization, this CAS only rations the slots"),
        ("fetch_add", 0): spec("stats", "probes-admitted counter; no synchronization intent"),
    },
    # ----- wcq/lib.rs (record publication and retirement) -------------
    (W, "maybe_help"): {
        ("load", 0): spec("helper-guard", "pending-record gauge probe; zero skips the scan entirely", sc=SC_WCQ_REC),
        ("load", 1): spec("helper-guard", "ctrl scan read: is this record pending, and at which generation", sc=SC_WCQ_REC),
        ("load", 2): spec("helper-guard", "arg read dispatching the pending op to its ring; the seq echo rejects mixed-generation reads", sc=SC_WCQ_REC),
    },
    (W, "publish"): {
        ("load", 0): spec("helper-guard", "own ctrl read deriving the next generation number; the owner is the only writer between publishes", sc=SC_WCQ_REC),
        ("store", 0): spec("doorway", "publishes the operation's argument word before the ctrl goes pending", sc=SC_WCQ_REC),
        ("fetch_add", 0): spec("doorway", "pending-gauge increment: the announcement the helpers' gauge probe must observe", sc=SC_WCQ_REC),
        ("store", 1): spec("doorway", "ctrl word goes PENDING; must follow the arg and gauge in the total order", sc=SC_WCQ_REC),
    },
    (W, "drive"): spec("helper-guard", "owner re-reads its ctrl word between self-help rounds; the slow-path completion also bumps the Relaxed depth-gauge counters (same argument as the fast-path bumps in try_enqueue/try_dequeue)", sc=SC_WCQ_REC),
    (W, "depth"): spec("stats", "advisory resident-value gauge; dequeue counter loaded first so a racing completion overcounts, never goes negative -- exact at quiescence, +1 tolerance per sudden-death kill (stranded-index rule)"),
    (W, "drained"): spec("stats", "monotonic drain heartbeat for the overload watchdog; Relaxed, compared across ticks only"),
    (W, "retire"): {
        ("load", 0): spec("helper-guard", "done-state read before the idle transition", sc=SC_WCQ_REC),
        ("compare_exchange", 0): spec("doorway", "DONE -> IDLE transition; a CAS so the gauge decrement below happens exactly once even against a racing generation", sc=SC_WCQ_REC),
        ("fetch_sub", 0): spec("doorway", "pending-gauge decrement, balancing publish's increment", sc=SC_WCQ_REC),
    },
    (W, "try_enqueue"): spec("stats", "depth-gauge bump after the value is published in the ring; Relaxed -- the gauge is advisory (admission hint), the ring's own SeqCst protocol carries the value"),
    (W, "try_dequeue"): spec("stats", "depth-gauge bump after the value is taken from the ring; Relaxed for the same reason as try_enqueue's"),
    (W, "drop"): spec("reclamation", "handle-drop cleanup: finishes or retires the dying handle's pending record (and recycles a stranded index) before the tid lease can be re-acquired", sc=SC_WCQ_REC),
    # ----- wcq/ring.rs (SCQ ring core + helping slow path) ------------
    (WR, "new"): spec("helper-guard", WHY_INIT),
    (WR, "reset_threshold"): {
        ("load", 0): spec("helper-guard", "skip the reset store when the threshold already holds 3n-1", sc=SC_WCQ),
        ("store", 0): spec("helper-guard", "threshold reset to 3n-1 after a completed enqueue (SCQ's emptiness credit)", sc=SC_WCQ),
        ("fetch_add", 0): spec("stats", "reset-observability counter for tests and the shootout; no synchronization intent"),
    },
    (WR, "catchup"): spec("helper-guard", "drags tail up to head after a dequeuer outran the enqueuers (SCQ catchup); failure values re-read in the loop", sc=SC_WCQ),
    (WR, "advance_tail_past"): spec("helper-guard", "slow path: tail must pass the record's ticket before its tentative install can count", sc=SC_WCQ),
    (WR, "advance_head_past"): spec("helper-guard", "slow path: head must pass the record's ticket before its claim can stand", sc=SC_WCQ),
    (WR, "enqueue_fast"): {
        ("fetch_add", 0): spec("helper-guard", "tail FAA: takes the enqueue ticket", sc=SC_WCQ),
        ("load", 0): spec("helper-guard", "entry read at the ticket's decoded slot", sc=SC_WCQ),
        ("load", 1): spec("helper-guard", "head read for the unsafe-entry admission check", sc=SC_WCQ),
        ("compare_exchange_weak", 0): spec("helper-guard", "the value-install CAS; the failure value re-enters the admission test, so both orderings are SeqCst", sc=SC_WCQ),
    },
    (WR, "dequeue_fast"): {
        ("load", 0): spec("helper-guard", "threshold pre-check: negative means observably empty without burning a ticket", sc=SC_WCQ),
        ("fetch_add", 0): spec("helper-guard", "head FAA: takes the dequeue ticket", sc=SC_WCQ),
        ("load", 1): spec("helper-guard", "entry read at the ticket's decoded slot", sc=SC_WCQ),
        ("compare_exchange_weak", 0): spec("helper-guard", "the value-take CAS (idx swapped out); failure re-enters the entry state machine, so both orderings are SeqCst", sc=SC_WCQ),
        ("compare_exchange_weak", 1): spec("helper-guard", "advance-empty / unsafe-mark CAS on a not-yet-produced entry (SCQ's dequeue rule)", sc=SC_WCQ),
        ("load", 2): spec("helper-guard", "tail read classifying a dead ticket as emptiness vs a lost race", sc=SC_WCQ),
        ("fetch_sub", 0): spec("helper-guard", "threshold decrement on the caught-up-empty path", sc=SC_WCQ),
        ("fetch_sub", 1): spec("helper-guard", "threshold decrement per dead ticket; reaching zero is the empty verdict", sc=SC_WCQ),
    },
    (WR, "help_record"): {
        ("load", 0): spec("helper-guard", "ctrl read opening a help iteration", sc=SC_WCQ_REC),
        ("load", 1): spec("helper-guard", "arg re-read; the seq+ring echo rejects stale dispatches", sc=SC_WCQ_REC),
        ("load", 2): spec("helper-guard", "tail read seeding an unset enqueue ticket", sc=SC_WCQ),
        ("compare_exchange", 0): spec("helper-guard", "installs the enqueue ticket into the ctrl word", sc=SC_WCQ_REC),
        ("load", 3): spec("helper-guard", "threshold read: a negative value completes a ticketless dequeue as EMPTY", sc=SC_WCQ),
        ("compare_exchange", 1): spec("helper-guard", "DONE_EMPTY transition for a ticketless dequeue under a negative threshold", sc=SC_WCQ_REC),
        ("load", 4): spec("helper-guard", "head read seeding an unset dequeue ticket", sc=SC_WCQ),
        ("compare_exchange", 2): spec("helper-guard", "installs the dequeue ticket into the ctrl word", sc=SC_WCQ_REC),
    },
    (WR, "help_enq_step"): {
        ("load", 0): spec("helper-guard", "entry read at the record's ticket", sc=SC_WCQ),
        ("compare_exchange", 0): spec("helper-guard", "DONE_OK transition for a parked tentative; the failure value is re-tested for the already-done echo, so both orderings are SeqCst", sc=SC_WCQ_REC),
        ("compare_exchange", 1): spec("helper-guard", "finalize-or-invalidate of the parked tentative, decided by the ctrl race above", sc=SC_WCQ),
        ("load", 1): spec("helper-guard", "head read for the installable admission check", sc=SC_WCQ),
        ("compare_exchange", 2): spec("helper-guard", "parks the tentative entry at a reserved position", sc=SC_WCQ),
        ("load", 2): spec("helper-guard", "tail read re-ticketing a dead position", sc=SC_WCQ),
        ("compare_exchange", 3): spec("helper-guard", "moves the record to a fresh tail ticket", sc=SC_WCQ_REC),
    },
    (WR, "help_deq_step"): {
        ("load", 0): spec("helper-guard", "entry read at the record's ticket", sc=SC_WCQ),
        ("compare_exchange", 0): spec("helper-guard", "claims a live value for the record (tid-tagged entry)", sc=SC_WCQ),
        ("compare_exchange", 1): spec("helper-guard", "our claim is parked here: the DONE_OK ctrl handshake", sc=SC_WCQ_REC),
        ("compare_exchange", 2): spec("helper-guard", "advance-empty / unsafe-mark CAS, SCQ's dequeue rule on the slow path", sc=SC_WCQ),
        ("load", 1): spec("helper-guard", "tail read classifying a dead ticket as emptiness vs a lost race", sc=SC_WCQ),
        ("compare_exchange", 3): spec("helper-guard", "DONE_EMPTY transition on the caught-up-empty path; the winner owns the threshold decrement below", sc=SC_WCQ_REC),
        ("fetch_sub", 0): spec("helper-guard", "threshold decrement charged to the ctrl-transition winner (exactly once per dead ticket)", sc=SC_WCQ),
        ("load", 2): spec("helper-guard", "head read re-ticketing a dead position", sc=SC_WCQ),
        ("compare_exchange", 4): spec("helper-guard", "moves the record to a fresh head ticket; the winner owns the decrement below", sc=SC_WCQ_REC),
        ("fetch_sub", 1): spec("helper-guard", "threshold decrement per dead ticket; exhausting it completes the record as EMPTY", sc=SC_WCQ),
        ("compare_exchange", 5): spec("helper-guard", "DONE_EMPTY transition when the decrement exhausted the threshold", sc=SC_WCQ_REC),
    },
    (WR, "resolve_tentative"): {
        ("load", 0): spec("helper-guard", "ctrl read of the tentative's record", sc=SC_WCQ_REC),
        ("load", 1): spec("helper-guard", "arg read; the full seq/ring/idx echo decides whether the tentative still belongs to the record", sc=SC_WCQ_REC),
        ("compare_exchange", 0): spec("helper-guard", "DONE_OK transition on behalf of the parked record", sc=SC_WCQ_REC),
        ("compare_exchange", 1): spec("helper-guard", "publishes the final bit of a won tentative", sc=SC_WCQ),
        ("compare_exchange", 2): spec("helper-guard", "invalidates an orphaned tentative (its record moved on)", sc=SC_WCQ),
    },
    (WR, "resolve_claim"): {
        ("load", 0): spec("helper-guard", "ctrl read of the claiming record", sc=SC_WCQ_REC),
        ("load", 1): spec("helper-guard", "arg read; the seq/ring echo validates the claim's provenance", sc=SC_WCQ_REC),
        ("compare_exchange", 0): spec("helper-guard", "DONE_OK transition finishing the claim for its record", sc=SC_WCQ_REC),
        ("compare_exchange", 1): spec("helper-guard", "defensive value-restore for a claim with no record behind it (unreachable by the full-word-CAS argument; restoring is the safe direction)", sc=SC_WCQ),
    },
    (WR, "ensure_finalized"): spec("helper-guard", "owner-side: publishes the final bit if the DONE-transition winner died between the ctrl CAS and the entry CAS", sc=SC_WCQ),
    (WR, "consume_claim"): {
        ("load", 0): spec("helper-guard", "re-reads the claimed entry before consuming it", sc=SC_WCQ),
        ("compare_exchange", 0): spec("helper-guard", "owner consumes its won claim (idx swapped out); the failure value is re-read in the loop, so both orderings are SeqCst", sc=SC_WCQ),
    },
    (WR, "live_indices"): spec("reclamation", "teardown walk under exclusive access (Drop); no concurrent access remains"),
    (WR, "threshold_value"): spec("stats", "diagnostic threshold snapshot", sc=SC_QUIESCENT),
    (WR, "resets"): spec("stats", "reset-counter snapshot; Relaxed pairs with the Relaxed bump"),
    # ----- wcq tests --------------------------------------------------
    (WT, "drop"): spec("stats", WHY_TEST),
    (WT, "drop_releases_leftover_values"): spec("stats", WHY_TEST),
    (WT, "full_and_empty_under_contention"): spec("stats", WHY_TEST),
    (WT, "depth_gauge_settles_under_contention"): spec("stats", WHY_TEST),
}

HEADER = """\
# ATOMICS.toml -- the workspace's memory-ordering manifest.
#
# Every atomic call site in the scoped crates must have a [[site]] entry
# here; `cargo run -p atomics-audit` diffs this file against the code on
# every CI run (see DESIGN.md SS11). Anchors are (file, fn, op, index) --
# the index is the ordinal of that op within the enclosing fn -- so line
# churn never invalidates an entry, but adding/removing/reordering the
# same op inside one fn does (rerun with --dump to re-derive anchors).
#
# Maintained via scripts/gen_atomics_manifest.py (the annotation source
# of truth); small edits can also be made here directly -- the generator
# and the checked-in file must then be kept in sync by the editor.
#
# role taxonomy:
#   linearization - implements a linearization step (names kp-model steps)
#   doorway       - bakery/phase announcement protocol (wait-freedom)
#   helper-guard  - exactly-once helping guards and validations
#   reclamation   - memory reclamation, recycling, hazard machinery
#   stats         - counters/diagnostics with no synchronization intent

[audit]
scope = ["crates/kp-queue", "crates/hazard", "crates/idpool", "crates/wcq", "crates/kp-channel"]
"""

SUPPRESSIONS = [
    ("sc-justification", "crates/hazard/src/tests.rs", None, "test scaffolding uses SeqCst counters for simplicity"),
    ("sc-justification", "crates/hazard/src/retired.rs", None, "only the tests module uses SeqCst; production fns in this file have none"),
    ("sc-justification", "crates/hazard/tests/integration.rs", None, "test scaffolding uses SeqCst counters for simplicity"),
    ("sc-justification", "crates/kp-queue/src/tests.rs", None, "test scaffolding uses SeqCst counters for simplicity"),
    ("sc-justification", "crates/kp-queue/src/hp_tests.rs", None, "test scaffolding uses SeqCst counters for simplicity"),
    ("sc-justification", "crates/wcq/src/tests.rs", None, "test scaffolding uses SeqCst counters for simplicity"),
    ("sc-justification", "crates/idpool/src/lib.rs", "oversubscribed_acquire_never_duplicates", "test scaffolding uses SeqCst for simplicity"),
    ("sc-justification", "crates/idpool/src/lib.rs", "concurrent_reap_race_single_winner", "test scaffolding uses SeqCst for simplicity"),
]


def main():
    skeleton = open(sys.argv[1]).read()
    out = [HEADER]
    unknown = []
    n = 0
    for block in skeleton.strip().split("\n\n"):
        kv = dict(re.findall(r'^(\w+) = (.+)$', block, re.M))
        file, fn = kv["file"].strip('"'), kv["fn"].strip('"')
        op, index = kv["op"].strip('"'), int(kv["index"])
        order = kv["order"]
        entry = TABLE.get((file, fn))
        if isinstance(entry, dict) and "role" not in entry:
            entry = entry.get((op, index))
        if entry is None:
            unknown.append(f"{file} {fn}/{op}#{index}")
            continue
        n += 1
        lines = [
            "[[site]]",
            f'file = "{file}"',
            f'fn = "{fn}"',
            f'op = "{op}"',
            f"index = {index}",
            f"order = {order}",
            f'role = "{entry["role"]}"',
            f'why = "{entry["why"]}"',
        ]
        if entry["sc"]:
            lines.append(f'sc = "{entry["sc"]}"')
        if entry["steps"]:
            steps = ", ".join(f'"{s}"' for s in entry["steps"])
            lines.append(f"model_steps = [{steps}]")
        out.append("\n".join(lines))
    for rule, file, fn, reason in SUPPRESSIONS:
        lines = ["[[suppress]]", f'rule = "{rule}"', f'file = "{file}"']
        if fn:
            lines.append(f'fn = "{fn}"')
        lines.append(f'reason = "{reason}"')
        out.append("\n".join(lines))
    if unknown:
        sys.stderr.write("unannotated sites:\n" + "\n".join(unknown) + "\n")
        sys.exit(1)
    sys.stdout.write("\n\n".join(out) + "\n")
    sys.stderr.write(f"{n} sites annotated\n")


if __name__ == "__main__":
    main()
