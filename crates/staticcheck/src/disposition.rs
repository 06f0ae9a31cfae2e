//! Disposition-completeness: every depositable fund in every reachable
//! state has a feasible exit path.
//!
//! The pass works on a contract's [`StateSpec`] in four phases:
//!
//! 1. **Well-formedness** (`SC004`): transitions must only reference
//!    declared funds and the initial state must be declared.
//! 2. **Earliest-entry reachability** (`SC002`, `SC003`): a fixpoint
//!    computes, per state, the earliest height the machine can reach it,
//!    relaxing each transition through
//!    [`TimeWindow::earliest_from`](chainsim::TimeWindow::earliest_from). A
//!    window that is unsatisfiable, or that closes before its source state
//!    can first be entered, is *dead* — the transition can never fire.
//! 3. **May-hold**: a forward fixpoint over reachable transitions computes
//!    which `(state, fund)` pairs can co-occur: deposits introduce a fund
//!    at the destination state, and the fund persists along any reachable
//!    transition that does not release it.
//! 4. **Release-reachability** (`SC001`): a backward fixpoint computes the
//!    states from which a fund can still be released. Any may-hold state
//!    outside that set strands the fund — the PR 9 arc-escrow bugs are
//!    exactly this shape, and the `canary-bugs` feature reintroduces them
//!    to keep this pass honest.
//!
//! The analysis over-approximates reachability (data guards are not
//! modelled), which is sound for stranding: a fund reported strandable
//! might be protected by a data guard, but a fund with a disposition path
//! in the over-approximation genuinely has one.

use std::collections::{BTreeMap, BTreeSet};

use chainsim::{StateMachine, StateSpec, Time};

use crate::{codes, Finding};

/// Checks one contract spec; returns all findings, deterministically
/// ordered by construction (machines and transitions are iterated in
/// declaration order, aggregate findings sort their state lists).
pub fn check_spec(spec: &StateSpec) -> Vec<Finding> {
    let mut findings = Vec::new();
    for machine in &spec.machines {
        check_machine(&spec.contract, machine, &mut findings);
    }
    findings
}

fn check_machine(contract: &str, machine: &StateMachine, findings: &mut Vec<Finding>) {
    let subject = format!("{contract}::{}", machine.name);
    let declared_funds: BTreeSet<&str> = machine.funds.iter().map(|f| f.name.as_str()).collect();

    // Phase 1: well-formedness.
    let mut malformed = false;
    if !machine.states.contains(&machine.initial) {
        findings.push(Finding::new(
            codes::MALFORMED_SPEC,
            subject.clone(),
            format!("initial state `{}` is not declared", machine.initial),
        ));
        malformed = true;
    }
    for t in &machine.transitions {
        for fund in t.deposits.iter().chain(t.releases.iter().map(|(f, _)| f)) {
            if !declared_funds.contains(fund.as_str()) {
                findings.push(Finding::new(
                    codes::MALFORMED_SPEC,
                    subject.clone(),
                    format!("transition `{}` references undeclared fund `{fund}`", t.name),
                ));
                malformed = true;
            }
        }
    }
    if malformed {
        return;
    }

    // Phase 2: earliest-entry reachability. Entry times only ever relax
    // downward and `earliest_from` is monotone in its entry argument, so
    // iterating to a fixpoint converges.
    let mut earliest: BTreeMap<&str, Time> = BTreeMap::new();
    earliest.insert(machine.initial.as_str(), Time(0));
    loop {
        let mut changed = false;
        for t in &machine.transitions {
            let Some(&entry) = earliest.get(t.from.as_str()) else { continue };
            let Some(fire) = t.window.earliest_from(entry) else { continue };
            let better = earliest.get(t.to.as_str()).is_none_or(|&cur| fire.is_before(cur));
            if better {
                earliest.insert(t.to.as_str(), fire);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let reachable = |t: &chainsim::TransitionSpec| {
        earliest.get(t.from.as_str()).is_some_and(|&e| t.window.earliest_from(e).is_some())
    };

    for t in &machine.transitions {
        if !t.window.is_satisfiable() {
            findings.push(Finding::new(
                codes::DEAD_WINDOW,
                subject.clone(),
                format!("transition `{}` has an unsatisfiable window", t.name),
            ));
        } else if let Some(&entry) = earliest.get(t.from.as_str()) {
            if t.window.earliest_from(entry).is_none() {
                findings.push(Finding::new(
                    codes::DEAD_WINDOW,
                    subject.clone(),
                    format!(
                        "transition `{}` closes before `{}` is first reachable (height {})",
                        t.name,
                        t.from,
                        entry.height()
                    ),
                ));
            }
        }
    }
    for state in &machine.states {
        if !earliest.contains_key(state.as_str()) {
            findings.push(Finding::new(
                codes::UNREACHABLE_STATE,
                subject.clone(),
                format!("state `{state}` is unreachable from `{}`", machine.initial),
            ));
        }
    }

    // Phase 3: may-hold fixpoint over reachable transitions.
    let mut may_hold: BTreeSet<(&str, &str)> = BTreeSet::new();
    loop {
        let mut changed = false;
        for t in &machine.transitions {
            if !reachable(t) {
                continue;
            }
            for fund in &t.deposits {
                changed |= may_hold.insert((t.to.as_str(), fund.as_str()));
            }
            for fund in &declared_funds {
                let carried = may_hold.contains(&(t.from.as_str(), fund))
                    && !t.releases.iter().any(|(f, _)| f == fund);
                if carried {
                    changed |= may_hold.insert((t.to.as_str(), fund));
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Phase 4: backward release-reachability per fund.
    for fund in &declared_funds {
        let mut can_release: BTreeSet<&str> = BTreeSet::new();
        loop {
            let mut changed = false;
            for t in &machine.transitions {
                if !reachable(t) || can_release.contains(t.from.as_str()) {
                    continue;
                }
                let releases_here = t.releases.iter().any(|(f, _)| f == fund);
                if releases_here || can_release.contains(t.to.as_str()) {
                    can_release.insert(t.from.as_str());
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let stranded: Vec<&str> = may_hold
            .iter()
            .filter(|(state, f)| f == fund && !can_release.contains(state))
            .map(|(state, _)| *state)
            .collect();
        if !stranded.is_empty() {
            findings.push(Finding::new(
                codes::STRANDED_FUND,
                subject.clone(),
                format!(
                    "fund `{fund}` can be stranded in state(s) {} with no disposition path",
                    stranded.join(", ")
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chainsim::{Disposition, TimeWindow, TransitionSpec};

    fn spec_of(machine: StateMachine) -> StateSpec {
        StateSpec::new("test").machine(machine)
    }

    #[test]
    fn complete_machine_is_clean() {
        let m = StateMachine::new("m", "Init")
            .fund("f")
            .transition(
                TransitionSpec::new("Deposit", "Init", "Held", TimeWindow::before(Time(4)))
                    .deposits("f"),
            )
            .transition(
                TransitionSpec::new("Refund", "Held", "Done", TimeWindow::from(Time(4)))
                    .releases("f", Disposition::Refund),
            );
        assert!(check_spec(&spec_of(m)).is_empty());
    }

    #[test]
    fn missing_disposition_is_stranding() {
        let m = StateMachine::new("m", "Init").fund("f").transition(
            TransitionSpec::new("Deposit", "Init", "Held", TimeWindow::ALWAYS).deposits("f"),
        );
        let findings = check_spec(&spec_of(m));
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].code, codes::STRANDED_FUND);
        assert!(findings[0].message.contains("Held"));
    }

    #[test]
    fn disposition_behind_dead_window_is_stranding() {
        // The refund window closes at height 3 but the deposit cannot land
        // before height 5: the exit path exists syntactically yet can never
        // fire, so the fund is stranded (and the window flagged dead).
        let m = StateMachine::new("m", "Init")
            .fund("f")
            .transition(
                TransitionSpec::new("Deposit", "Init", "Held", TimeWindow::from(Time(5)))
                    .deposits("f"),
            )
            .transition(
                TransitionSpec::new("Refund", "Held", "Done", TimeWindow::before(Time(3)))
                    .releases("f", Disposition::Refund),
            );
        let findings = check_spec(&spec_of(m));
        let codes_seen: Vec<&str> = findings.iter().map(|f| f.code).collect();
        assert!(codes_seen.contains(&codes::STRANDED_FUND));
        assert!(codes_seen.contains(&codes::DEAD_WINDOW));
    }

    #[test]
    fn unreachable_state_and_undeclared_fund_are_reported() {
        let m = StateMachine::new("m", "Init").state("Orphan");
        let findings = check_spec(&spec_of(m));
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].code, codes::UNREACHABLE_STATE);

        let m = StateMachine::new("m", "Init").transition(
            TransitionSpec::new("Deposit", "Init", "Held", TimeWindow::ALWAYS).deposits("ghost"),
        );
        let findings = check_spec(&spec_of(m));
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].code, codes::MALFORMED_SPEC);
    }

    #[test]
    fn fund_held_across_intermediate_states_is_tracked() {
        // f is deposited, carried through Mid (no release), then refunded:
        // clean. Removing the final edge must strand it in both states.
        let carried = StateMachine::new("m", "Init")
            .fund("f")
            .transition(
                TransitionSpec::new("Deposit", "Init", "Held", TimeWindow::ALWAYS).deposits("f"),
            )
            .transition(TransitionSpec::new("Step", "Held", "Mid", TimeWindow::ALWAYS))
            .transition(
                TransitionSpec::new("Refund", "Mid", "Done", TimeWindow::ALWAYS)
                    .releases("f", Disposition::Refund),
            );
        assert!(check_spec(&spec_of(carried.clone())).is_empty());

        // Dropping the refund edge strands f in both states (and leaves
        // the auto-declared `Done` unreachable).
        let mut truncated = carried;
        truncated.transitions.pop();
        let findings = check_spec(&spec_of(truncated));
        let stranded: Vec<&Finding> =
            findings.iter().filter(|f| f.code == codes::STRANDED_FUND).collect();
        assert_eq!(stranded.len(), 1);
        assert!(stranded[0].message.contains("Held") && stranded[0].message.contains("Mid"));
        assert!(findings.iter().any(|f| f.code == codes::UNREACHABLE_STATE));
    }
}
