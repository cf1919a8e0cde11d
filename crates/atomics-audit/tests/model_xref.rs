//! Cross-references the ordering manifest against the kp-model checker.
//!
//! Every `ATOMICS.toml` site tagged `role = "linearization"` must name
//! the kp-model step(s) it implements via `model_steps`, and those
//! names must exist in the model's step vocabulary (`STEP_NAMES`). The
//! reverse direction is pinned too: the three linearization-relevant
//! step families of the paper — the append CAS, the `deqTid` lock CAS,
//! and the empty observation — must each be claimed by some site in the
//! queue core, which both reclamation backends share, so deleting a
//! manifest entry (or retagging it away from `linearization`) fails
//! here even though the audit binary itself would still pass.

use std::collections::BTreeSet;
use std::path::PathBuf;

fn manifest() -> atomics_audit::manifest::Manifest {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let text = std::fs::read_to_string(root.join("ATOMICS.toml")).expect("read ATOMICS.toml");
    atomics_audit::manifest::parse(&text).expect("ATOMICS.toml parses")
}

#[test]
fn every_linearization_site_names_known_model_steps() {
    let m = manifest();
    let known: BTreeSet<&str> = kp_model::STEP_NAMES.iter().copied().collect();
    let mut linearization_sites = 0;
    for site in &m.sites {
        if site.role != "linearization" {
            continue;
        }
        linearization_sites += 1;
        assert!(
            !site.model_steps.is_empty(),
            "{}/{}: linearization site without model_steps",
            site.file,
            site.symbol
        );
        for step in &site.model_steps {
            assert!(
                known.contains(step.as_str()),
                "{}/{}: model_steps names `{step}`, which kp-model does not define \
                 (known: {known:?})",
                site.file,
                site.symbol
            );
        }
    }
    assert!(linearization_sites > 0, "manifest has no linearization sites at all");
}

#[test]
fn paper_linearization_steps_are_claimed_in_both_variants() {
    let m = manifest();
    // The paper's linearization structure: enqueue linearizes at the
    // append CAS (Append), a successful dequeue at the deqTid lock CAS
    // (Lock), and an empty dequeue at the empty observation
    // acknowledged through the descriptor transition (Stage0Empty).
    // Both variants run the one core in queue.rs (epoch and hazard
    // pointers are its reclamation backends), so its sites serve both.
    for variant in ["crates/kp-queue/src/queue.rs"] {
        let claimed: BTreeSet<&str> = m
            .sites
            .iter()
            .filter(|s| s.role == "linearization")
            // desc.rs descriptor transitions serve both variants.
            .filter(|s| s.file == variant || s.file == "crates/kp-queue/src/desc.rs")
            .flat_map(|s| s.model_steps.iter().map(String::as_str))
            .collect();
        // The fast path reuses the same three linearization points
        // without a descriptor (DESIGN.md §12); each must be claimed by
        // a core site too.
        for required in ["Append", "Lock", "Stage0Empty", "FastAppend", "FastLock", "FastEmpty"] {
            assert!(
                claimed.contains(required),
                "{variant}: no linearization site claims model step `{required}` \
                 (claimed: {claimed:?})"
            );
        }
    }
}

#[test]
fn model_steps_only_appear_on_linearization_sites() {
    // The audit binary enforces this too (rule bad-role); duplicating
    // it here keeps the invariant covered by plain `cargo test` even if
    // someone runs the suite without the gate.
    let m = manifest();
    for site in &m.sites {
        if site.role != "linearization" {
            assert!(
                site.model_steps.is_empty(),
                "{}/{}: model_steps on a `{}` site",
                site.file,
                site.symbol,
                site.role
            );
        }
    }
}
