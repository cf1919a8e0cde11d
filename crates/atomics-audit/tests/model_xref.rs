//! Cross-references the ordering tags against the kp-model checker.
//!
//! Every site tagged `// ord(linearization, ..., steps=...)` names the
//! kp-model step(s) it implements, and those names must exist in the
//! model's step vocabulary (`STEP_NAMES`). The reverse direction is
//! pinned too: the three linearization-relevant step families of the
//! paper — the append CAS, the `deqTid` lock CAS, and the empty
//! observation — must each be claimed by some site in the queue core,
//! which both reclamation backends share, so deleting a tag's `steps=`
//! (or retagging it away from `linearization`) fails here even though
//! the audit binary itself would still pass.

use atomics_audit::scan::{self, ScanReport, Site, Tag};
use std::collections::BTreeSet;
use std::path::PathBuf;

fn report() -> ScanReport {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    scan::scan_scope(&root, atomics_audit::SCOPE).expect("scan the audited scope")
}

/// Every site tagged `linearization`, with its tag.
fn linearization_sites(r: &ScanReport) -> Vec<(&Site, &Tag)> {
    r.sites
        .iter()
        .filter_map(|s| Some((s, &r.tags[s.tag?])))
        .filter(|(_, t)| t.role == "linearization")
        .collect()
}

#[test]
fn every_linearization_site_names_known_model_steps() {
    let r = report();
    let known: BTreeSet<&str> = kp_model::STEP_NAMES.iter().copied().collect();
    let sites = linearization_sites(&r);
    assert!(!sites.is_empty(), "no linearization sites at all");
    for (site, tag) in sites {
        assert!(!tag.steps.is_empty(), "{}:{}: linearization site without steps=", site.file, site.line);
        for step in &tag.steps {
            assert!(
                known.contains(step.as_str()),
                "{}:{}: steps= names `{step}`, which kp-model does not define (known: {known:?})",
                site.file,
                site.line
            );
        }
    }
}

#[test]
fn paper_linearization_steps_are_claimed_by_the_core() {
    let r = report();
    // The paper's linearization structure: enqueue linearizes at the
    // append CAS (Append), a successful dequeue at the deqTid lock CAS
    // (Lock), and an empty dequeue at the empty observation
    // acknowledged through the descriptor transition (Stage0Empty).
    // Epoch and hazard pointers are reclamation backends of the one
    // core in queue.rs; its descriptor transitions live in desc.rs.
    let claimed: BTreeSet<&str> = linearization_sites(&r)
        .into_iter()
        .filter(|(s, _)| {
            s.file == "crates/kp-queue/src/queue.rs" || s.file == "crates/kp-queue/src/desc.rs"
        })
        .flat_map(|(_, t)| t.steps.iter().map(String::as_str))
        .collect();
    // The fast path reuses the same three linearization points without
    // a descriptor (DESIGN.md §12); each must be claimed by a core site
    // too.
    for required in ["Append", "Lock", "Stage0Empty", "FastAppend", "FastLock", "FastEmpty"] {
        assert!(
            claimed.contains(required),
            "no core linearization site claims model step `{required}` (claimed: {claimed:?})"
        );
    }
}
