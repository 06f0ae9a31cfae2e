//! Deadline-schedule feasibility: the §7 staggered arc ladders, the §5
//! two-party ladders, the §9 auction ladder, the §6 bootstrap horizon,
//! finality margins, and per-script deadline annotations.
//!
//! Every check is *tight* against the committed schedule generators:
//! moving any deadline one tick earlier violates exactly one constraint,
//! which the property tests exploit to prove each rule is live.

use chainsim::{FinalityParams, Time};
use contracts::ArcDeadlines;
use protocols::deal::DealConfig;
use protocols::script::ScriptedParty;
use protocols::two_party::{min_finality_margin, HedgedSchedule, TwoPartyConfig};
use swapgraph::Digraph;

use crate::{codes, Finding};

fn require(
    findings: &mut Vec<Finding>,
    code: &'static str,
    subject: &str,
    ok: bool,
    message: impl FnOnce() -> String,
) {
    if !ok {
        findings.push(Finding::new(code, subject, message()));
    }
}

/// Checks a §7 arc-deadline ladder against its swap digraph.
///
/// With `n` parties, diameter `diam` and synchrony bound Δ, each protocol
/// phase needs an `n·Δ` window (every party must observe and react within
/// Δ on its own chain, staggered across the leader order), and the final
/// settlement must sit at least `(n + diam + 1)·Δ` past the hashkey base
/// so the longest redemption path (`ℓ ≤ diam + 1` per Lemma 3's pebble
/// argument) finishes before forfeiture.
pub fn check_arc_deadlines(label: &str, d: &ArcDeadlines, digraph: &Digraph) -> Vec<Finding> {
    let subject = format!("deal/{label}");
    let mut findings = Vec::new();
    let delta = d.delta_blocks;
    let n = digraph.vertex_count() as u64;
    let diam = digraph.diameter().unwrap_or(n);
    let (ep, rp) = (d.escrow_premium_deadline.height(), d.redemption_premium_deadline.height());
    let (ae, hk) = (d.asset_escrow_deadline.height(), d.hashkey_timeout_base.height());
    let fin = d.final_deadline.height();

    let mut check = |ok: bool, message: &dyn Fn() -> String| {
        require(&mut findings, codes::ARC_SCHEDULE, &subject, ok, message);
    };
    check(delta >= 1, &|| "synchrony bound Δ must be at least one block".to_string());
    check(ep >= n * delta, &|| {
        format!(
            "escrow-premium deadline {ep} leaves less than the n·Δ = {} phase-1 window",
            n * delta
        )
    });
    check(rp >= ep + n * delta, &|| {
        format!(
            "redemption-premium deadline {rp} is less than n·Δ = {} past phase 1 ({ep})",
            n * delta
        )
    });
    check(ae >= rp + n * delta, &|| {
        format!("asset-escrow deadline {ae} is less than n·Δ = {} past phase 2 ({rp})", n * delta)
    });
    check(hk >= ae, &|| {
        format!("hashkey timeout base {hk} precedes the asset-escrow deadline {ae}")
    });
    check(fin >= hk + (n + diam + 1) * delta, &|| {
        format!(
            "final deadline {fin} cuts off the longest redemption path: needs (n + diam + 1)·Δ = {} past the hashkey base ({hk})",
            (n + diam + 1) * delta
        )
    });
    findings
}

/// [`check_arc_deadlines`] for a deal configuration's published ladder.
pub fn check_deal(label: &str, config: &DealConfig) -> Vec<Finding> {
    check_arc_deadlines(label, &config.arc_deadlines(), &config.digraph)
}

/// Checks a §5.2 hedged two-party ladder: each rung must extend the
/// previous by Δ, the time one action takes to propagate.
pub fn check_hedged_schedule(label: &str, s: &HedgedSchedule, delta: u64) -> Vec<Finding> {
    let subject = format!("two-party/{label}");
    let mut findings = Vec::new();
    let rungs = [
        ("premium on banana", s.premium_banana.height(), 0),
        ("premium on apricot", s.premium_apricot.height(), s.premium_banana.height()),
        ("escrow on apricot", s.escrow_apricot.height(), s.premium_apricot.height()),
        ("escrow on banana", s.escrow_banana.height(), s.escrow_apricot.height()),
        ("redeem on banana", s.redeem_banana.height(), s.escrow_banana.height()),
        ("redeem on apricot", s.redeem_apricot.height(), s.redeem_banana.height()),
    ];
    for (name, rung, prev) in rungs {
        require(&mut findings, codes::HEDGED_SCHEDULE, &subject, rung >= prev + delta, || {
            format!("{name} deadline {rung} is less than Δ = {delta} past its predecessor ({prev})")
        });
    }
    findings
}

/// Checks the §5.1 base-swap HTLC timelocks: the banana leg must fit a
/// full cross-chain round trip and the apricot leg one propagation more.
pub fn check_base_timelocks(label: &str, banana: Time, apricot: Time, delta: u64) -> Vec<Finding> {
    let subject = format!("two-party/{label}");
    let mut findings = Vec::new();
    require(&mut findings, codes::HEDGED_SCHEDULE, &subject, banana.height() >= 2 * delta, || {
        format!(
            "banana timelock {} is shorter than a cross-chain round trip 2Δ = {}",
            banana.height(),
            2 * delta
        )
    });
    require(
        &mut findings,
        codes::HEDGED_SCHEDULE,
        &subject,
        apricot.height() >= banana.height() + delta,
        || {
            format!(
                "apricot timelock {} is less than Δ = {delta} past the banana timelock ({})",
                apricot.height(),
                banana.height()
            )
        },
    );
    findings
}

/// Checks everything derivable from one two-party configuration: Δ
/// sanity, the hedged ladder, and the base timelocks.
pub fn check_two_party(label: &str, config: &TwoPartyConfig) -> Vec<Finding> {
    let subject = format!("two-party/{label}");
    let delta = config.delta_blocks;
    let mut findings = Vec::new();
    require(&mut findings, codes::HEDGED_SCHEDULE, &subject, delta >= 1, || {
        "synchrony bound Δ must be at least one block".to_string()
    });
    if delta >= 1 {
        findings.extend(check_hedged_schedule(label, &config.hedged_schedule(), delta));
        let (banana, apricot) = config.base_timelocks();
        findings.extend(check_base_timelocks(label, banana, apricot, delta));
    }
    findings
}

/// Checks a configured finality margin against the chain's finality depth
/// and the protocol's synchrony bound Δ (`delta_blocks`): a re-delivered
/// call lands up to `depth − 1` blocks late, and a party may still be
/// answering a deviator's last legal call `Δ − 1` ticks after it, so the
/// margin must be at least [`min_finality_margin`].
pub fn check_finality(
    label: &str,
    finality: &FinalityParams,
    delta_blocks: u64,
    margin: u64,
) -> Vec<Finding> {
    let subject = format!("finality/{label}");
    let mut findings = Vec::new();
    let needed = min_finality_margin(finality.depth, delta_blocks);
    require(&mut findings, codes::FINALITY_MARGIN, &subject, margin >= needed, || {
        format!(
            "finality margin {margin} is smaller than (depth − 1) + (Δ − 1) = {needed}: a re-delivered call can land past its padded deadline"
        )
    });
    findings
}

/// Checks the §9 auction ladder: bidders need a full Δ to bid, and the
/// challenge deadline must sit `5·Δ` past the bid deadline (declare,
/// challenge, counter-challenge, and the two finalization propagations of
/// the committed `6Δ` ladder).
pub fn check_auction(label: &str, bid: Time, challenge: Time, delta: u64) -> Vec<Finding> {
    let subject = format!("auction/{label}");
    let mut findings = Vec::new();
    require(&mut findings, codes::AUCTION_SCHEDULE, &subject, delta >= 1, || {
        "synchrony bound Δ must be at least one block".to_string()
    });
    require(&mut findings, codes::AUCTION_SCHEDULE, &subject, bid.height() >= delta, || {
        format!("bid deadline {} leaves less than one Δ = {delta} to place bids", bid.height())
    });
    require(
        &mut findings,
        codes::AUCTION_SCHEDULE,
        &subject,
        challenge.height() >= bid.height() + 5 * delta,
        || {
            format!(
                "challenge deadline {} is less than 5·Δ = {} past the bid deadline ({})",
                challenge.height(),
                5 * delta,
                bid.height()
            )
        },
    );
    findings
}

/// Checks a §6 bootstrap cascade horizon: each of the `rounds + 1` levels
/// has a `6·Δ` slot of the schedule and the principal redemption one more,
/// so the redemption horizon must be at least `6·Δ·(rounds + 2)`.
pub fn check_bootstrap(label: &str, rounds: u32, delta: u64, horizon: Time) -> Vec<Finding> {
    let subject = format!("bootstrap/{label}");
    let mut findings = Vec::new();
    require(&mut findings, codes::BOOTSTRAP_SCHEDULE, &subject, delta >= 1, || {
        "synchrony bound Δ must be at least one block".to_string()
    });
    let needed = 6 * delta * u64::from(rounds + 2);
    require(&mut findings, codes::BOOTSTRAP_SCHEDULE, &subject, horizon.height() >= needed, || {
        format!(
            "horizon {} cannot fit {} cascade levels of 6·Δ = {} blocks each (needs {needed})",
            horizon.height(),
            rounds + 2,
            6 * delta
        )
    });
    findings
}

/// Checks one script's deadline annotations.
///
/// With `expect_monotone`, annotated step deadlines must be strictly
/// increasing in step order (`SC201`): a later step with an earlier
/// give-up deadline is already expired when reached. This is the defining
/// shape of the hedged-family ladders; the base §5.1 HTLC swap is the one
/// tier-1 protocol that genuinely lacks it (the first escrow's apricot
/// timelock `3Δ` outlives the banana redemption cutoff `2Δ` — exactly the
/// cross-chain asymmetry the hedged schedule eliminates), so its scripts
/// opt out of the order lint.
///
/// Unconditionally, the `k`-th annotated deadline must leave at least
/// `k + 1` heights of legal emission (`SC202`): deadlines are exclusive,
/// so a deadline of `k` admits heights `0..k` — enough for the `k`
/// earlier annotated steps plus this one only when every step fires
/// instantly.
pub fn check_script_deadlines(
    context: &str,
    party: &ScriptedParty,
    expect_monotone: bool,
) -> Vec<Finding> {
    let subject = format!("script/{context}/{}", party.party());
    let mut findings = Vec::new();
    let mut annotated = 0u64;
    let mut prev: Option<(&'static str, Time)> = None;
    for (step, deadline) in party.step_deadlines() {
        let Some(deadline) = deadline else { continue };
        if let Some((prev_step, prev_deadline)) = prev {
            require(
                &mut findings,
                codes::SCRIPT_ORDER,
                &subject,
                !expect_monotone || prev_deadline.is_before(deadline),
                || {
                    format!(
                        "step `{step}` deadline {} does not extend step `{prev_step}` deadline {}",
                        deadline.height(),
                        prev_deadline.height()
                    )
                },
            );
        }
        require(
            &mut findings,
            codes::SCRIPT_WINDOW,
            &subject,
            deadline.height() >= annotated,
            || {
                format!(
                "step `{step}` deadline {} leaves no legal height after {annotated} earlier annotated step(s)",
                deadline.height()
            )
            },
        );
        annotated += 1;
        prev = Some((step, deadline));
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_generators_are_tight() {
        // The default generators pass…
        let config = TwoPartyConfig::default();
        assert!(check_two_party("default", &config).is_empty());

        // …and every hedged rung is tight: one tick earlier trips SC102.
        let base = config.hedged_schedule();
        for field in 0..6 {
            let mut s = base;
            let slot = [
                &mut s.premium_banana,
                &mut s.premium_apricot,
                &mut s.escrow_apricot,
                &mut s.escrow_banana,
                &mut s.redeem_banana,
                &mut s.redeem_apricot,
            ]
            .into_iter()
            .nth(field)
            .unwrap();
            *slot = Time(slot.height() - 1);
            let findings = check_hedged_schedule("perturbed", &s, config.delta_blocks);
            assert!(!findings.is_empty(), "rung {field} was not tight");
        }
    }

    #[test]
    fn finality_margin_rule() {
        let depth2 = FinalityParams { depth: 2, delta: 0 };
        assert!(check_finality("ok", &depth2, 1, 1).is_empty());
        assert!(check_finality("ok", &depth2, 2, 2).is_empty());
        assert!(check_finality("ok", &FinalityParams::INSTANT, 2, 0).is_empty());
        let findings = check_finality("lagging", &depth2, 2, 1);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].code, codes::FINALITY_MARGIN);
        assert_eq!(
            check_finality("lagging", &FinalityParams { depth: 3, delta: 0 }, 1, 1).len(),
            1
        );
    }

    #[test]
    fn script_rules_fire_on_regressions() {
        use chainsim::PartyId;
        use protocols::script::{Step, StepOutcome, Strategy};

        let step = |name| Step::new(name, |_| StepOutcome::Complete(Vec::new()));
        let decreasing = ScriptedParty::new(
            PartyId(0),
            vec![step("first").with_deadline(Time(5)), step("second").with_deadline(Time(4))],
            Strategy::compliant(),
        );
        let findings = check_script_deadlines("test", &decreasing, true);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].code, codes::SCRIPT_ORDER);
        // The base §5.1 swap opts out of the order lint.
        assert!(check_script_deadlines("test", &decreasing, false).is_empty());

        let cramped = ScriptedParty::new(
            PartyId(0),
            vec![step("first").with_deadline(Time(0)), step("second").with_deadline(Time(0))],
            Strategy::compliant(),
        );
        let codes_seen: Vec<&str> =
            check_script_deadlines("test", &cramped, true).iter().map(|f| f.code).collect();
        assert!(codes_seen.contains(&codes::SCRIPT_WINDOW));
    }
}
