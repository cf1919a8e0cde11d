//! Exhaustive DFS over all interleavings of the scheme's atomic steps.

use std::collections::HashSet;

use crate::state::{OpKind, Pc, Scenario, State};

/// A model-level bug, reported with the schedule that reaches it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// A linearization step executed twice for one operation
    /// (Lemma 1/2 violation).
    DoubleLinearization {
        /// `(thread, op_index)` of the offending operation.
        op: (usize, usize),
        /// The schedule (step labels) reaching the bug.
        schedule: Vec<String>,
    },
    /// A dequeue's observed value diverged from the sequential spec at
    /// its linearization point.
    SpecDivergence {
        /// `(thread, op_index)`.
        op: (usize, usize),
        /// What the operation observed.
        observed: Option<u64>,
        /// What the specification required.
        expected: Option<u64>,
        /// The schedule reaching the bug.
        schedule: Vec<String>,
    },
    /// The abstract list and the spec queue disagree (structure bug).
    StructureDivergence {
        /// Effective list contents.
        list: Vec<u64>,
        /// Spec contents.
        spec: Vec<u64>,
        /// The schedule reaching the bug.
        schedule: Vec<String>,
    },
    /// A reachable non-terminal state has no enabled step.
    Stuck {
        /// The schedule reaching the stuck state.
        schedule: Vec<String>,
    },
}

/// Statistics from a successful exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreResult {
    /// Distinct states visited.
    pub states: usize,
    /// Distinct terminal states reached.
    pub terminals: usize,
}

/// A step of some operation, identified for enumeration.
#[derive(Debug, Clone, Copy)]
struct Step {
    thread: usize,
    op: usize,
    kind: StepKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StepKind {
    Publish,
    Append,
    AckEnq,
    FixTail,
    Stage0Empty,
    Stage0NonEmpty,
    Restage,
    Lock,
    AckDeq,
    FixHead,
    FastAppend,
    FastFixTail,
    FastEmpty,
    FastStage0,
    FastRestage,
    FastLock,
    FastFixHead,
    /// A mortal thread dies (DESIGN.md §13 sudden death): enabled at
    /// every point of its execution, so the explorer covers all death
    /// positions. An op that has touched no shared state vanishes with
    /// the thread; published descriptor work freezes until adopted.
    Abandon,
    /// The reaper adopts a dead thread's orphaned descriptor work
    /// (`reap_slot`'s help-then-retire sequence, collapsed to its
    /// enabling effect): the orphan's remaining steps become ordinary
    /// helper steps and must drive it to completion exactly once.
    ReapClaim,
}

/// The names of every step the explorer enumerates, in `StepKind`
/// declaration order. This is the model-side vocabulary the `steps=`
/// field of a `// ord(linearization, ...)` tag must draw from — the
/// atomics-audit cross-reference test ties each `linearization`-tagged
/// call site in the implementation to one of these steps, so the code
/// and the model cannot drift apart silently.
pub const STEP_NAMES: &[&str] = &[
    "Publish",
    "Append",
    "AckEnq",
    "FixTail",
    "Stage0Empty",
    "Stage0NonEmpty",
    "Restage",
    "Lock",
    "AckDeq",
    "FixHead",
    "FastAppend",
    "FastFixTail",
    "FastEmpty",
    "FastStage0",
    "FastRestage",
    "FastLock",
    "FastFixHead",
    "Abandon",
    "ReapClaim",
];

impl Step {
    fn label(&self) -> String {
        format!("t{}op{}:{:?}", self.thread, self.op, self.kind)
    }
}

/// Explores every interleaving of `scenario`; returns statistics or the
/// first model error found.
pub fn explore(scenario: &Scenario) -> Result<ExploreResult, ModelError> {
    let mut memo: HashSet<State> = HashSet::new();
    let mut terminals: HashSet<State> = HashSet::new();
    let mut schedule: Vec<String> = Vec::new();
    let init = State::initial(scenario);
    dfs(&init, &mut memo, &mut terminals, &mut schedule)?;
    Ok(ExploreResult {
        states: memo.len(),
        terminals: terminals.len(),
    })
}

fn dfs(
    s: &State,
    memo: &mut HashSet<State>,
    terminals: &mut HashSet<State>,
    schedule: &mut Vec<String>,
) -> Result<(), ModelError> {
    if !memo.insert(s.clone()) {
        return Ok(());
    }
    check_structure(s, schedule)?;
    if s.terminal() {
        check_terminal(s, schedule)?;
        terminals.insert(s.clone());
        return Ok(());
    }
    let steps = enabled_steps(s);
    if steps.is_empty() {
        return Err(ModelError::Stuck {
            schedule: schedule.clone(),
        });
    }
    for step in steps {
        let next = apply(s, step, schedule)?;
        schedule.push(step.label());
        dfs(&next, memo, terminals, schedule)?;
        schedule.pop();
    }
    Ok(())
}

/// The *effective* list: the shared list minus a head sentinel whose
/// dequeue already linearized (spec popped at Lock; head swings later).
fn effective_list(s: &State) -> Vec<u64> {
    let mut vals = s.list_values();
    if s.nodes[s.head].deq_by.is_some() && !vals.is_empty() {
        vals.remove(0);
    }
    vals
}

fn check_structure(s: &State, schedule: &[String]) -> Result<(), ModelError> {
    let list = effective_list(s);
    let spec: Vec<u64> = s.spec.iter().copied().collect();
    if list != spec {
        return Err(ModelError::StructureDivergence {
            list,
            spec,
            schedule: schedule.to_vec(),
        });
    }
    Ok(())
}

fn check_terminal(s: &State, schedule: &[String]) -> Result<(), ModelError> {
    for (t, ops) in s.ops.iter().enumerate() {
        for (k, op) in ops.iter().enumerate() {
            if op.vanished {
                // Died before touching shared state: the op never
                // happened — any linearization of it is a double-apply.
                if op.linearized_count != 0 {
                    return Err(ModelError::DoubleLinearization {
                        op: (t, k),
                        schedule: schedule.to_vec(),
                    });
                }
                continue;
            }
            if op.pc != Pc::Done {
                // Only a dead thread leaves work unfinished at a
                // terminal state, and only ops it never started —
                // in-flight orphans keep the state non-terminal until
                // adoption completes them (or wedge into Stuck).
                debug_assert!(s.dead[t]);
                continue;
            }
            if op.linearized_count != 1 {
                return Err(ModelError::DoubleLinearization {
                    op: (t, k),
                    schedule: schedule.to_vec(),
                });
            }
            if matches!(op.kind, OpKind::Dequeue | OpKind::FastDequeue) && op.result.is_none() {
                return Err(ModelError::SpecDivergence {
                    op: (t, k),
                    observed: None,
                    expected: None,
                    schedule: schedule.to_vec(),
                });
            }
        }
    }
    Ok(())
}

fn enabled_steps(s: &State) -> Vec<Step> {
    let mut out = Vec::new();
    for (t, &cur) in s.cur.iter().enumerate() {
        if cur >= s.ops[t].len() {
            continue;
        }
        let op = &s.ops[t][cur];
        let mk = |kind| Step {
            thread: t,
            op: cur,
            kind,
        };
        // A mortal thread may die at any point; the explorer branches
        // on every death position.
        if s.mortal[t] && !s.dead[t] {
            out.push(mk(StepKind::Abandon));
        }
        if s.dead[t] {
            if matches!(op.pc, Pc::Publish | Pc::FastAppend | Pc::FastStage0) {
                // A dead thread starts nothing new (these are the
                // initial pcs of ops that never touched shared state;
                // an op *abandoned* at one of them vanished instead).
                continue;
            }
            if matches!(op.pc, Pc::Append | Pc::Stage0 | Pc::Lock) && !s.reaped[t] {
                // Orphaned descriptor-driven stages (help_enq's append,
                // help_deq's stage 0 / sentinel lock) wait for the
                // reaper's adoption — in the no-helping worst case
                // nobody else drives a peer's descriptor. The remaining
                // pcs are help_finish_* work any thread runs
                // unconditionally, so they stay enabled below.
                if s.reaping {
                    out.push(mk(StepKind::ReapClaim));
                }
                continue;
            }
        }
        match (op.kind, op.pc) {
            (_, Pc::Publish) => out.push(mk(StepKind::Publish)),
            (OpKind::Enqueue(_), Pc::Append) => {
                // §3.1 lazy-enqueue invariant: append only at a settled
                // tail (no dangling node).
                if s.dangling().is_none() {
                    out.push(mk(StepKind::Append));
                }
            }
            (OpKind::Enqueue(_), Pc::AckEnq) => out.push(mk(StepKind::AckEnq)),
            (OpKind::Enqueue(_), Pc::FixTail) => out.push(mk(StepKind::FixTail)),
            (OpKind::Dequeue, Pc::Stage0) => {
                if s.head == s.tail {
                    if s.nodes[s.tail].next.is_none() {
                        out.push(mk(StepKind::Stage0Empty));
                    }
                    // else: an enqueue is mid-flight (dangling node);
                    // the dequeue must wait for its FixTail — the
                    // paper's "help it first, then retry" (L122–123).
                } else {
                    out.push(mk(StepKind::Stage0NonEmpty));
                }
            }
            (OpKind::Dequeue, Pc::Lock) => {
                let staged = op.node.expect("stage 0 recorded a sentinel");
                if s.head != staged {
                    // Head moved since stage 0: restage (L129–132 loop).
                    out.push(mk(StepKind::Restage));
                } else if s.nodes[staged].deq_by.is_none() {
                    out.push(mk(StepKind::Lock));
                }
                // else: sentinel locked by another op; its Ack/FixHead
                // are enabled instead — progress is global.
            }
            (OpKind::Dequeue, Pc::AckDeq) => out.push(mk(StepKind::AckDeq)),
            (OpKind::Dequeue, Pc::FixHead) => out.push(mk(StepKind::FixHead)),
            (OpKind::FastEnqueue(_), Pc::FastAppend) => {
                // Same append CAS as the slow path's L74, hence the same
                // §3.1 guard: only at a settled tail. With a dangling
                // node the implementation's fast loop helps FixTail and
                // retries — modelled by the dangling op's own FixTail
                // step being the enabled one (global progress).
                if s.dangling().is_none() {
                    out.push(mk(StepKind::FastAppend));
                }
            }
            (OpKind::FastEnqueue(_), Pc::FastFixTail) => out.push(mk(StepKind::FastFixTail)),
            (OpKind::FastDequeue, Pc::FastStage0) => {
                if s.head == s.tail {
                    if s.nodes[s.tail].next.is_none() {
                        out.push(mk(StepKind::FastEmpty));
                    }
                    // else: dangling node — wait for its FixTail, as in
                    // the slow stage 0 (the fast loop helps and retries).
                } else {
                    out.push(mk(StepKind::FastStage0));
                }
            }
            (OpKind::FastDequeue, Pc::FastLock) => {
                let staged = op.node.expect("fast stage 0 read a sentinel");
                if s.head != staged {
                    // Head moved between the read and the CAS: the CAS
                    // would fail (nodes behind head are always locked),
                    // and the fast loop retries from a fresh head read.
                    out.push(mk(StepKind::FastRestage));
                } else if s.nodes[staged].deq_by.is_none() {
                    out.push(mk(StepKind::FastLock));
                }
                // else: locked by a concurrent (fast or slow) dequeue;
                // that op's completion steps are enabled instead.
            }
            (OpKind::FastDequeue, Pc::FastFixHead) => out.push(mk(StepKind::FastFixHead)),
            (_, Pc::Done) => unreachable!("cur advances when an op completes"),
            _ => unreachable!("kind/pc mismatch"),
        }
    }
    out
}

fn apply(s: &State, step: Step, schedule: &[String]) -> Result<State, ModelError> {
    let mut n = s.clone();
    let t = step.thread;
    let k = step.op;
    // Split borrows: mutate the op through an index each time.
    macro_rules! op {
        () => {
            n.ops[t][k]
        };
    }
    match step.kind {
        StepKind::Publish => {
            op!().pc = match op!().kind {
                OpKind::Enqueue(_) => Pc::Append,
                OpKind::Dequeue => Pc::Stage0,
                OpKind::FastEnqueue(_) | OpKind::FastDequeue => {
                    unreachable!("fast ops have no publish step")
                }
            };
        }
        StepKind::Append => {
            let OpKind::Enqueue(v) = op!().kind else {
                unreachable!()
            };
            let idx = n.nodes.len();
            n.nodes.push(crate::state::Node {
                value: Some(v),
                next: None,
                deq_by: None,
            });
            debug_assert!(n.nodes[n.tail].next.is_none());
            let tail = n.tail;
            n.nodes[tail].next = Some(idx);
            op!().node = Some(idx);
            // Linearization of the enqueue.
            n.spec.push_back(v);
            op!().linearized_count += 1;
            if op!().linearized_count > 1 {
                return Err(ModelError::DoubleLinearization {
                    op: (t, k),
                    schedule: schedule.to_vec(),
                });
            }
            op!().pc = Pc::AckEnq;
        }
        StepKind::AckEnq => {
            op!().pc = Pc::FixTail;
        }
        StepKind::FixTail => {
            let next = n.nodes[n.tail].next.expect("our appended node");
            debug_assert_eq!(Some(next), op!().node);
            n.tail = next;
            op!().pc = Pc::Done;
            n.cur[t] += 1;
        }
        StepKind::Stage0Empty => {
            // Linearized as an empty dequeue (L112 read + L120 CAS).
            let expected = n.spec.front().copied();
            if expected.is_some() {
                return Err(ModelError::SpecDivergence {
                    op: (t, k),
                    observed: None,
                    expected,
                    schedule: schedule.to_vec(),
                });
            }
            op!().result = Some(None);
            op!().linearized_count += 1;
            op!().pc = Pc::Done;
            n.cur[t] += 1;
        }
        StepKind::Stage0NonEmpty => {
            op!().node = Some(n.head);
            op!().pc = Pc::Lock;
        }
        StepKind::Restage => {
            op!().node = None;
            op!().pc = Pc::Stage0;
        }
        StepKind::Lock => {
            let sentinel = op!().node.expect("staged");
            debug_assert_eq!(sentinel, n.head);
            debug_assert!(n.nodes[sentinel].deq_by.is_none());
            n.nodes[sentinel].deq_by = Some((t, k));
            let first = n.nodes[sentinel].next.expect("non-empty branch");
            let observed = n.nodes[first].value;
            // Linearization of the successful dequeue.
            let expected = n.spec.pop_front();
            if observed != expected {
                return Err(ModelError::SpecDivergence {
                    op: (t, k),
                    observed,
                    expected,
                    schedule: schedule.to_vec(),
                });
            }
            op!().result = Some(observed);
            op!().linearized_count += 1;
            if op!().linearized_count > 1 {
                return Err(ModelError::DoubleLinearization {
                    op: (t, k),
                    schedule: schedule.to_vec(),
                });
            }
            op!().pc = Pc::AckDeq;
        }
        StepKind::AckDeq => {
            op!().pc = Pc::FixHead;
        }
        StepKind::FixHead => {
            let sentinel = op!().node.expect("locked");
            debug_assert_eq!(sentinel, n.head);
            n.head = n.nodes[sentinel].next.expect("locked sentinel has next");
            op!().pc = Pc::Done;
            n.cur[t] += 1;
        }
        StepKind::FastAppend => {
            // Identical shared-state effect to Append (same CAS); the
            // fast op just has no descriptor to acknowledge afterwards.
            let OpKind::FastEnqueue(v) = op!().kind else {
                unreachable!()
            };
            let idx = n.nodes.len();
            n.nodes.push(crate::state::Node {
                value: Some(v),
                next: None,
                deq_by: None,
            });
            debug_assert!(n.nodes[n.tail].next.is_none());
            let tail = n.tail;
            n.nodes[tail].next = Some(idx);
            op!().node = Some(idx);
            // Linearization of the fast enqueue.
            n.spec.push_back(v);
            op!().linearized_count += 1;
            if op!().linearized_count > 1 {
                return Err(ModelError::DoubleLinearization {
                    op: (t, k),
                    schedule: schedule.to_vec(),
                });
            }
            op!().pc = Pc::FastFixTail;
        }
        StepKind::FastFixTail => {
            let next = n.nodes[n.tail].next.expect("our appended node");
            debug_assert_eq!(Some(next), op!().node);
            n.tail = next;
            op!().pc = Pc::Done;
            n.cur[t] += 1;
        }
        StepKind::FastEmpty => {
            // Linearized as an empty dequeue at the validated `next`
            // load (no descriptor CAS needed on the fast path).
            let expected = n.spec.front().copied();
            if expected.is_some() {
                return Err(ModelError::SpecDivergence {
                    op: (t, k),
                    observed: None,
                    expected,
                    schedule: schedule.to_vec(),
                });
            }
            op!().result = Some(None);
            op!().linearized_count += 1;
            op!().pc = Pc::Done;
            n.cur[t] += 1;
        }
        StepKind::FastStage0 => {
            op!().node = Some(n.head);
            op!().pc = Pc::FastLock;
        }
        StepKind::FastRestage => {
            op!().node = None;
            op!().pc = Pc::FastStage0;
        }
        StepKind::FastLock => {
            // Identical to Lock (same `deqTid` CAS, marker value aside).
            let sentinel = op!().node.expect("staged");
            debug_assert_eq!(sentinel, n.head);
            debug_assert!(n.nodes[sentinel].deq_by.is_none());
            n.nodes[sentinel].deq_by = Some((t, k));
            let first = n.nodes[sentinel].next.expect("non-empty branch");
            let observed = n.nodes[first].value;
            // Linearization of the successful fast dequeue.
            let expected = n.spec.pop_front();
            if observed != expected {
                return Err(ModelError::SpecDivergence {
                    op: (t, k),
                    observed,
                    expected,
                    schedule: schedule.to_vec(),
                });
            }
            op!().result = Some(observed);
            op!().linearized_count += 1;
            if op!().linearized_count > 1 {
                return Err(ModelError::DoubleLinearization {
                    op: (t, k),
                    schedule: schedule.to_vec(),
                });
            }
            op!().pc = Pc::FastFixHead;
        }
        StepKind::FastFixHead => {
            let sentinel = op!().node.expect("locked");
            debug_assert_eq!(sentinel, n.head);
            n.head = n.nodes[sentinel].next.expect("locked sentinel has next");
            op!().pc = Pc::Done;
            n.cur[t] += 1;
        }
        StepKind::Abandon => {
            n.dead[t] = true;
            match op!().pc {
                // Nothing shared yet (descriptor unpublished / node
                // private / lock CAS not executed): the op vanishes
                // with the thread. Its value, if any, is lost — the
                // bounded per-death loss the torture suite budgets as
                // `allowed_missing` — and the spec never saw it.
                Pc::Publish | Pc::FastAppend | Pc::FastStage0 | Pc::FastLock => {
                    op!().vanished = true;
                    op!().pc = Pc::Done;
                    n.cur[t] += 1;
                }
                // Published / mid-protocol: the orphan freezes where it
                // is. enabled_steps decides what may still run (the
                // help_finish_* pcs immediately, descriptor stages only
                // after ReapClaim).
                _ => {}
            }
        }
        StepKind::ReapClaim => {
            debug_assert!(n.dead[t] && !n.reaped[t]);
            n.reaped[t] = true;
        }
    }
    Ok(n)
}

#[cfg(test)]
mod step_names_tests {
    use super::{StepKind, STEP_NAMES};

    #[test]
    fn step_names_match_the_enum() {
        // Exhaustive: listing every variant here means adding a variant
        // without extending STEP_NAMES fails to compile.
        let all = [
            StepKind::Publish,
            StepKind::Append,
            StepKind::AckEnq,
            StepKind::FixTail,
            StepKind::Stage0Empty,
            StepKind::Stage0NonEmpty,
            StepKind::Restage,
            StepKind::Lock,
            StepKind::AckDeq,
            StepKind::FixHead,
            StepKind::FastAppend,
            StepKind::FastFixTail,
            StepKind::FastEmpty,
            StepKind::FastStage0,
            StepKind::FastRestage,
            StepKind::FastLock,
            StepKind::FastFixHead,
            StepKind::Abandon,
            StepKind::ReapClaim,
        ];
        assert_eq!(all.len(), STEP_NAMES.len());
        for (kind, name) in all.iter().zip(STEP_NAMES) {
            assert_eq!(format!("{kind:?}"), *name);
        }
    }
}
