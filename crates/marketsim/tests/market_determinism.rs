//! Determinism and conservation suite for the market-scale settlement
//! engine.
//!
//! The engine promises two things no other test pins end-to-end:
//!
//! * the settlement report is **byte-identical** across worker counts at
//!   the same seed — execution knobs must be unobservable;
//! * funds are conserved **fee-adjusted** on every shard: transfers are
//!   zero-sum on the ledger, gas fees are metered (never deducted), so the
//!   parties' aggregate fee-adjusted payoff per shard is exactly `-fees`.

use marketsim::market::metering::{conservation_violations, meter_shard};
use marketsim::market::shard::Shard;
use marketsim::market::{deals, run_market, MarketConfig};
use marketsim::PricePath;

/// A mid-sized market: big enough that every deal kind, both walk-away
/// scripts and plenty of cross-shard legs occur, small enough to run in a
/// debug-mode test suite.
fn cfg() -> MarketConfig {
    MarketConfig {
        seed: 0xD15C_0DE5,
        shards: 4,
        accounts: 400,
        deals: 120,
        deals_per_round: 12,
        workers: 1,
        ..MarketConfig::default()
    }
}

/// Pins the report digests of [`cfg`] and of its reorg variant, and checks
/// that every worker count reproduces them. A digest is a pure function of
/// the settlement the market computes, so re-pinning one needs a written
/// reason (ROADMAP item 5).
#[test]
fn report_is_byte_identical_across_workers() {
    for (config, digest) in [
        (cfg(), "cc66bbb03fc87496"),
        (MarketConfig { reorg_interval: 4, reorg_depth: 1, ..cfg() }, "b7881b87e1d0267a"),
    ] {
        let base = run_market(&config).report;
        assert_eq!(base.violations, 0, "base run violated: {:?}", base.violation_details);
        assert_eq!(base.settled, config.deals, "every deal must settle");
        assert_eq!(base.digest(), digest, "the pinned report changed");

        let base_canonical = base.canonical_string();
        for workers in [1u32, 2, 4] {
            let run = run_market(&MarketConfig { workers, ..config.clone() });
            assert_eq!(run.report, base, "report diverged at workers={workers}");
            assert_eq!(
                run.report.canonical_string(),
                base_canonical,
                "canonical string diverged at workers={workers}"
            );
            assert_eq!(run.report.digest(), digest);
        }
    }
}

#[test]
fn different_seed_changes_the_digest() {
    let a = run_market(&cfg()).report;
    let b = run_market(&MarketConfig { seed: 0xD15C_0DE6, ..cfg() }).report;
    assert_ne!(a.digest(), b.digest(), "seed must steer the settlement report");
}

/// Replays the driver's round loop through the public shard API so the
/// finished shards themselves (not just the report) can be metered, then
/// asserts both conservation laws per shard.
#[test]
fn funds_are_conserved_fee_adjusted_on_every_shard() {
    let cfg = cfg();
    let rounds = cfg.rounds();
    let path = PricePath::gbm(100.0, 0.0, 0.6, 1.0 / 365.0, rounds as usize, cfg.seed);
    let per_shard = deals::split_by_home(deals::generate(&cfg, &path), cfg.shards);

    let mut shards: Vec<Shard> =
        (0..cfg.shards).map(|id| Shard::new(id, &cfg, 2 * cfg.deals as usize)).collect();
    for (shard, deals) in shards.iter_mut().zip(per_shard) {
        shard.assign_deals(deals);
    }
    for round in 0..rounds {
        for shard in shards.iter_mut() {
            shard.run_round(round);
        }
        // The round barrier, in shard-id order exactly as the driver does it.
        for source in 0..shards.len() {
            for envelope in shards[source].take_outbox() {
                shards[envelope.target as usize].push_inbox(envelope.msg);
            }
        }
    }

    for shard in &shards {
        let m = meter_shard(shard, cfg.endowment, cfg.gas_price);
        let violations = conservation_violations(&m, shard.minted_per_asset());
        assert!(violations.is_empty(), "shard {}: {violations:?}", shard.id());

        // The fee-adjusted law spelled out, independent of the helper's own
        // phrasing: ledger positions are zero-sum, gas was actually burned,
        // and the market as a whole paid the chains exactly its fees.
        assert_eq!(m.net_token + m.net_native, 0, "shard {} not zero-sum", shard.id());
        assert!(m.gas > 0, "shard {} metered no gas", shard.id());
        assert_eq!(m.fees, u128::from(m.gas) * u128::from(cfg.gas_price));
        assert_eq!(
            m.fee_adjusted_net(),
            -(m.fees as i128),
            "shard {}: aggregate fee-adjusted payoff must be -fees",
            shard.id()
        );
        assert_eq!(m.contract_residue, 0, "shard {} stranded funds in contracts", shard.id());
    }
}
