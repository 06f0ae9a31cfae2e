//! The fixed tree is clean, the output is byte-identical across runs, and
//! every schedule invariant is *tight*: perturbing any deadline one tick
//! earlier produces a finding.

#![cfg(not(feature = "canary-bugs"))]

use chainsim::{FinalityParams, Time};
use contracts::ArcDeadlines;
use protocols::auction::AuctionConfig;
use protocols::bootstrap::BootstrapConfig;
use protocols::two_party::TwoPartyConfig;
use staticcheck::{
    analyze_default_suite, codes, schedule, tier1_deal_configs, tier1_two_party_configs,
};

#[test]
fn fixed_tree_has_zero_findings() {
    let report = analyze_default_suite();
    assert_eq!(
        report.findings,
        Vec::new(),
        "static analysis must be clean on the fixed tree:\n{}",
        report.render()
    );
    // The suite actually analyzed substantial surface, not a vacuous pass.
    assert!(report.contracts_analyzed > 50, "only {} contracts", report.contracts_analyzed);
    assert!(report.machines_analyzed > report.contracts_analyzed);
    assert!(report.scripts_analyzed > 30, "only {} scripts", report.scripts_analyzed);
    assert!(report.schedules_checked >= 15, "only {} schedules", report.schedules_checked);
    assert!(report.files_scanned > 40, "only {} files", report.files_scanned);
    assert!(report.waivers > 0, "the documented waivers were not counted");
}

#[test]
fn report_is_byte_identical_across_runs() {
    let first = analyze_default_suite().render();
    let second = analyze_default_suite().render();
    assert_eq!(first, second);
}

#[test]
fn every_tier1_schedule_passes() {
    for (label, config) in tier1_two_party_configs() {
        assert!(schedule::check_two_party(&label, &config).is_empty(), "{label}");
    }
    for (label, config) in tier1_deal_configs() {
        assert!(schedule::check_deal(&label, &config).is_empty(), "{label}");
    }
}

#[test]
fn arc_ladders_are_tight_under_one_tick_perturbation() {
    for (label, config) in tier1_deal_configs() {
        let base = config.arc_deadlines();
        let perturbations: [(&str, Perturbation); 5] = [
            (
                "escrow_premium",
                Box::new(|d| d.escrow_premium_deadline = back(d.escrow_premium_deadline)),
            ),
            (
                "redemption_premium",
                Box::new(|d| d.redemption_premium_deadline = back(d.redemption_premium_deadline)),
            ),
            ("asset_escrow", Box::new(|d| d.asset_escrow_deadline = back(d.asset_escrow_deadline))),
            ("hashkey_base", Box::new(|d| d.hashkey_timeout_base = back(d.hashkey_timeout_base))),
            ("final", Box::new(|d| d.final_deadline = back(d.final_deadline))),
        ];
        for (field, perturb) in perturbations {
            let mut d = base.clone();
            perturb(&mut d);
            let findings = schedule::check_arc_deadlines(&label, &d, &config.digraph);
            assert!(
                findings.iter().any(|f| f.code == codes::ARC_SCHEDULE),
                "{label}: {field} one tick earlier was not flagged"
            );
        }
    }
}

#[test]
fn hedged_ladders_are_tight_under_one_tick_perturbation() {
    for (label, config) in tier1_two_party_configs() {
        let (da, db) = (config.delta_a(), config.delta_b());
        let base = config.hedged_schedule();
        for field in 0..6 {
            let mut s = base;
            let slots = [
                &mut s.premium_banana,
                &mut s.premium_apricot,
                &mut s.escrow_apricot,
                &mut s.escrow_banana,
                &mut s.redeem_banana,
                &mut s.redeem_apricot,
            ];
            let slot = slots.into_iter().nth(field).unwrap();
            *slot = back(*slot);
            let findings = schedule::check_hedged_schedule(&label, &s, da, db);
            assert!(
                findings.iter().any(|f| f.code == codes::HEDGED_SCHEDULE),
                "{label}: rung {field} one tick earlier was not flagged"
            );
        }

        let (banana, apricot) = config.base_timelocks();
        for (tag, b, a) in [("banana", back(banana), apricot), ("apricot", banana, back(apricot))] {
            let findings = schedule::check_base_timelocks(&label, b, a, da, db);
            assert!(
                findings.iter().any(|f| f.code == codes::HEDGED_SCHEDULE),
                "{label}: base {tag} timelock one tick earlier was not flagged"
            );
        }
    }
}

#[test]
fn auction_bootstrap_and_finality_are_tight() {
    // The auction's published ladder passes…
    let auction = AuctionConfig::default();
    let (bid, challenge) = auction.deadlines();
    let delta = auction.delta_blocks;
    assert!(schedule::check_auction("default", bid, challenge, delta).is_empty());
    // …and either deadline one tick earlier trips SC104.
    for (b, c) in [(back(bid), challenge), (bid, back(challenge))] {
        let findings = schedule::check_auction("perturbed", b, c, delta);
        assert!(findings.iter().any(|f| f.code == codes::AUCTION_SCHEDULE));
    }

    // The cascade's published horizon is exact.
    for rounds in [1u32, 3, 10] {
        let cascade = BootstrapConfig::new(5_000, 20_000, 10, rounds);
        let (delta, horizon) = (cascade.delta_blocks(), cascade.horizon());
        assert!(schedule::check_bootstrap("exact", rounds, delta, horizon).is_empty());
        let findings = schedule::check_bootstrap("short", rounds, delta, back(horizon));
        assert!(findings.iter().any(|f| f.code == codes::BOOTSTRAP_SCHEDULE));
    }

    // A finality margin below (depth − 1) + (Δ − 1) trips SC103.
    let depth2 = FinalityParams { depth: 2, delta: 0 };
    assert!(schedule::check_finality("ok", &depth2, delta, 2).is_empty());
    let findings = schedule::check_finality("short", &depth2, delta, 1);
    assert!(findings.iter().any(|f| f.code == codes::FINALITY_MARGIN));
}

#[test]
fn degenerate_two_party_delta_is_flagged() {
    let config = TwoPartyConfig { delta_blocks: 0, ..TwoPartyConfig::default() };
    // delta_a()/delta_b() fall back to delta_blocks, here zero.
    let findings = schedule::check_two_party("zero-delta", &config);
    assert!(findings.iter().any(|f| f.code == codes::HEDGED_SCHEDULE));
}

type Perturbation = Box<dyn Fn(&mut ArcDeadlines)>;

fn back(t: Time) -> Time {
    Time(t.height().saturating_sub(1))
}
