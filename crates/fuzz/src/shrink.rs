//! Greedy structural shrinking of a failing case.
//!
//! Reductions are tried in decreasing order of payoff — drop a class,
//! drop a stimulus, empty a state's action, drop one statement, weaken a
//! transition to an ignore — and a reduction is kept only when the
//! reduced spec still fails with the **same failure class** (so a
//! divergence never "shrinks" into a mere build error). The loop runs to
//! a fixed point under an attempt budget; every candidate stays
//! well-formed by construction, so the minimized triple always lowers,
//! prints and replays.

use xtuml_core::action::{Block, Expr, GenTarget, Stmt};

use crate::runner::{run_spec, Ablation};
use crate::spec::{FuzzSpec, TransSpec};

/// Shrink effort bound: total reduced-case executions.
const MAX_ATTEMPTS: u64 = 2_000;

/// What the shrinker achieved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShrinkStats {
    /// Reduced-case executions performed.
    pub attempts: u64,
    /// Class count before → after.
    pub classes: (usize, usize),
    /// Statement count before → after.
    pub stmts: (usize, usize),
    /// Stimulus count before → after.
    pub stimuli: (usize, usize),
}

impl ShrinkStats {
    /// Size ratio `after/before` over (classes + statements + stimuli);
    /// 1.0 means nothing shrank.
    pub fn ratio(&self) -> f64 {
        let before = (self.classes.0 + self.stmts.0 + self.stimuli.0) as f64;
        let after = (self.classes.1 + self.stmts.1 + self.stimuli.1) as f64;
        if before == 0.0 {
            1.0
        } else {
            after / before
        }
    }
}

fn expr_mentions(e: &Expr, class: &str) -> bool {
    match e {
        Expr::Nav(base, c, _) => c == class || expr_mentions(base, class),
        Expr::Attr(base, _) => expr_mentions(base, class),
        Expr::Unary(_, inner) => expr_mentions(inner, class),
        Expr::Binary(_, a, b) => expr_mentions(a, class) || expr_mentions(b, class),
        Expr::BridgeCall(_, _, args) => args.iter().any(|a| expr_mentions(a, class)),
        _ => false,
    }
}

fn stmt_mentions(s: &Stmt, class: &str) -> bool {
    match s {
        Stmt::Generate { args, target, .. } => {
            args.iter().any(|a| expr_mentions(a, class))
                || matches!(target, GenTarget::Inst(e) if expr_mentions(e, class))
        }
        Stmt::Assign { expr, .. } => expr_mentions(expr, class),
        _ => false,
    }
}

/// Removes (recursively) every statement that references `class` — used
/// when that class is deleted so remaining actions stay well-typed.
fn purge_class_refs(block: &mut Block, class: &str) {
    block.stmts.retain(|s| !stmt_mentions(s, class));
    for s in &mut block.stmts {
        match s {
            Stmt::If {
                arms, otherwise, ..
            } => {
                for (_, b) in arms {
                    purge_class_refs(b, class);
                }
                if let Some(b) = otherwise {
                    purge_class_refs(b, class);
                }
            }
            Stmt::While { body, .. } | Stmt::ForEach { body, .. } => {
                purge_class_refs(body, class);
            }
            _ => {}
        }
    }
}

fn remove_class(spec: &FuzzSpec, victim: usize) -> FuzzSpec {
    let mut s = spec.clone();
    let name = s.classes[victim].name.clone();
    s.classes.remove(victim);
    s.assocs.retain(|a| a.parent != victim && a.child != victim);
    for a in &mut s.assocs {
        if a.parent > victim {
            a.parent -= 1;
        }
        if a.child > victim {
            a.child -= 1;
        }
    }
    s.stimuli.retain(|st| st.class != victim);
    for st in &mut s.stimuli {
        if st.class > victim {
            st.class -= 1;
        }
    }
    for c in &mut s.classes {
        for (_, action) in &mut c.states {
            purge_class_refs(action, &name);
        }
    }
    s
}

/// All candidate reductions of `spec`, best payoff first.
fn candidates(spec: &FuzzSpec) -> Vec<FuzzSpec> {
    let mut out = Vec::new();
    // 1. Drop a whole class (sub-tree senders lose their sends too).
    if spec.classes.len() > 1 {
        for victim in (0..spec.classes.len()).rev() {
            out.push(remove_class(spec, victim));
        }
    }
    // 2. Drop a stimulus.
    for i in 0..spec.stimuli.len() {
        let mut s = spec.clone();
        s.stimuli.remove(i);
        out.push(s);
    }
    // 3. Empty a whole state action.
    for (ci, c) in spec.classes.iter().enumerate() {
        for (si, (_, action)) in c.states.iter().enumerate() {
            if !action.stmts.is_empty() {
                let mut s = spec.clone();
                s.classes[ci].states[si].1 = Block::new();
                out.push(s);
            }
        }
    }
    // 4. Drop one top-level statement.
    for (ci, c) in spec.classes.iter().enumerate() {
        for (si, (_, action)) in c.states.iter().enumerate() {
            for k in 0..action.stmts.len() {
                let mut s = spec.clone();
                s.classes[ci].states[si].1.stmts.remove(k);
                out.push(s);
            }
        }
    }
    // 5. Weaken a transition to an ignore (keeps the table total).
    for (ci, c) in spec.classes.iter().enumerate() {
        for (si, row) in c.transitions.iter().enumerate() {
            for (ei, t) in row.iter().enumerate() {
                if matches!(t, TransSpec::To(_)) {
                    let mut s = spec.clone();
                    s.classes[ci].transitions[si][ei] = TransSpec::Ignore;
                    out.push(s);
                }
            }
        }
    }
    out
}

/// Greedily minimizes a failing spec while the failure (same class)
/// reproduces. Returns the original spec untouched when it does not fail
/// at all.
pub fn shrink(spec: &FuzzSpec, ablation: Ablation, checkpoint: bool) -> (FuzzSpec, ShrinkStats) {
    let before = (spec.classes.len(), spec.stmt_count(), spec.stimuli.len());
    let target = run_spec(spec, ablation, checkpoint).class();
    let mut stats = ShrinkStats {
        attempts: 1,
        classes: (before.0, before.0),
        stmts: (before.1, before.1),
        stimuli: (before.2, before.2),
    };
    if target == "pass" {
        return (spec.clone(), stats);
    }
    let mut current = spec.clone();
    'outer: loop {
        for cand in candidates(&current) {
            if stats.attempts >= MAX_ATTEMPTS {
                break 'outer;
            }
            stats.attempts += 1;
            if run_spec(&cand, ablation, checkpoint).class() == target {
                current = cand;
                continue 'outer;
            }
        }
        break;
    }
    stats.classes.1 = current.classes.len();
    stats.stmts.1 = current.stmt_count();
    stats.stimuli.1 = current.stimuli.len();
    (current, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::generate;
    use crate::runner::run_spec;

    #[test]
    fn passing_specs_are_left_alone() {
        let spec = generate(0);
        assert_eq!(run_spec(&spec, Ablation::None, false).class(), "pass");
        let (same, stats) = shrink(&spec, Ablation::None, false);
        assert_eq!(same, spec);
        assert_eq!(stats.attempts, 1);
        assert!((stats.ratio() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn class_removal_purges_references() {
        // Find a generated spec with at least one edge, remove the child,
        // and check the parent no longer mentions it anywhere.
        for seed in 0..50 {
            let spec = generate(seed);
            if let Some(edge) = spec.assocs.first() {
                let victim = edge.child;
                let name = spec.classes[victim].name.clone();
                let reduced = remove_class(&spec, victim);
                assert_eq!(reduced.classes.len(), spec.classes.len() - 1);
                for c in &reduced.classes {
                    for (_, action) in &c.states {
                        let mut b = action.clone();
                        purge_class_refs(&mut b, &name);
                        assert_eq!(&b, action, "seed {seed}: dangling reference to {name}");
                    }
                }
                // The reduced spec must still lower and validate.
                reduced.lower().unwrap();
                return;
            }
        }
        panic!("no generated spec with an association in 0..50");
    }
}
