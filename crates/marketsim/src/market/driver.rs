//! The market driver: fork-join round loop, verification and reporting.
//!
//! Each round has two phases. In the parallel phase, workers own disjoint
//! shard chunks (`std::thread::scope`, no locks, no external dependencies)
//! and run every shard one round forward — inbox drain, deal spawns, deal
//! steps, then `advance_delta`. At the barrier, the single-threaded driver
//! merges every shard's outbox into the target inboxes *in shard-id order*,
//! so the messages a shard sees next round are a pure function of the round
//! number — never of worker scheduling. That is the whole determinism
//! argument: reports are byte-identical across worker counts by
//! construction, and the determinism suite checks it.

// staticcheck: allow-file(SC301) — the driver times its own phases
// (wall-clock throughput numbers in the market report); timing feeds the
// perf columns only, never simulated outcomes.
use std::time::{Duration, Instant};

use chainsim::ContractAddr;
use contracts::{
    AuctionCoinContract, AuctionOutcome, AuctionTicketContract, HedgedEscrow, HedgedPremiumState,
    HedgedPrincipalState, HtlcEscrow, HtlcState,
};

use super::deals::{self, Deal, DealKind, Expected, HedgedDeviation, LegRef};
use super::metering::{self, ShardMetering};
use super::report::{percentile, MarketReport, SettledByKind, ShardSummary};
use super::shard::Shard;
use super::MarketConfig;
use crate::PricePath;

/// How many violation descriptions the report keeps verbatim.
const MAX_REPORTED_VIOLATIONS: usize = 8;

/// A finished market run: the canonical report plus wall-clock timings
/// (kept outside the report so timing never perturbs determinism checks).
#[derive(Debug)]
pub struct MarketRun {
    /// The canonical settlement report.
    pub report: MarketReport,
    /// Time spent building shards and minting endowments.
    pub setup: Duration,
    /// Time spent executing rounds (the throughput denominator).
    pub execute: Duration,
    /// Wall time of the whole run: deal generation, setup, rounds,
    /// verification, metering and dropping the shards.
    pub total: Duration,
}

impl MarketRun {
    /// Settled deals per second of round execution.
    pub fn settled_per_sec(&self) -> f64 {
        let secs = self.execute.as_secs_f64();
        if secs > 0.0 {
            f64::from(self.report.settled) / secs
        } else {
            0.0
        }
    }

    /// Whole-run wall time per settled deal, in microseconds.
    pub fn us_per_settled_deal(&self) -> f64 {
        if self.report.settled > 0 {
            self.total.as_secs_f64() * 1e6 / f64::from(self.report.settled)
        } else {
            0.0
        }
    }
}

/// Runs one market to completion.
///
/// The worker count in `cfg` affects only wall-clock time; the returned
/// report is byte-identical for any value of it.
pub fn run_market(cfg: &MarketConfig) -> MarketRun {
    cfg.validate();
    let start = Instant::now();
    let rounds = cfg.rounds();
    // One price sample per round sizes each deal from its start round; the
    // strict accessor turns a mis-computed horizon into an immediate panic.
    let path = PricePath::gbm(100.0, 0.0, 0.6, 1.0 / 365.0, rounds as usize, cfg.seed);
    let all_deals = deals::generate(cfg, &path);
    let per_shard = deals::split_by_home(all_deals, cfg.shards);
    // Worst case two contracts per deal land on one shard.
    let contract_estimate = 2 * cfg.deals as usize;

    let setup_start = Instant::now();
    let mut shards: Vec<Shard> =
        (0..cfg.shards).map(|id| Shard::new(id, cfg, contract_estimate)).collect();
    for (shard, deals) in shards.iter_mut().zip(per_shard) {
        shard.assign_deals(deals);
    }
    let setup = setup_start.elapsed();

    let execute_start = Instant::now();
    let workers = cfg.workers.max(1) as usize;
    for round in 0..rounds {
        run_on_workers(&mut shards, workers, |shard| shard.run_round(round));
        deliver_batches(&mut shards);
    }
    let execute = execute_start.elapsed();

    let report = build_report(cfg, rounds, &shards);
    drop(shards);
    MarketRun { report, setup, execute, total: start.elapsed() }
}

/// Runs `f` once per shard, fanned out over at most `workers` scoped
/// threads owning disjoint chunks. One worker runs inline on the caller's
/// thread path to keep the sequential baseline allocation-free.
fn run_on_workers<F>(shards: &mut [Shard], workers: usize, f: F)
where
    F: Fn(&mut Shard) + Sync,
{
    let workers = workers.clamp(1, shards.len().max(1));
    if workers == 1 {
        for shard in shards.iter_mut() {
            f(shard);
        }
        return;
    }
    let chunk = shards.len().div_ceil(workers);
    std::thread::scope(|scope| {
        for slice in shards.chunks_mut(chunk) {
            scope.spawn(|| {
                for shard in slice {
                    f(shard);
                }
            });
        }
    });
}

/// The round barrier: moves every outbox message into its target inbox.
/// Source shards drain in id order and each outbox preserves emission
/// order, so inbox contents are deterministic regardless of which worker
/// ran which shard.
fn deliver_batches(shards: &mut [Shard]) {
    for source in 0..shards.len() {
        for envelope in shards[source].take_outbox() {
            shards[envelope.target as usize].push_inbox(envelope.msg);
        }
    }
}

fn leg_addr(shards: &[Shard], deal: u32, leg: LegRef) -> Result<ContractAddr, String> {
    shards.get(leg.shard as usize).and_then(|s| s.leg_addr(deal, leg.leg)).ok_or_else(|| {
        format!("deal {deal}: leg {} never published on shard {}", leg.leg, leg.shard)
    })
}

fn hedged_leg_state(
    shards: &[Shard],
    deal: u32,
    leg: LegRef,
) -> Result<(HedgedPremiumState, HedgedPrincipalState), String> {
    let addr = leg_addr(shards, deal, leg)?;
    let contract = shards[leg.shard as usize]
        .chain()
        .contract_as::<HedgedEscrow>(addr.contract)
        .ok_or_else(|| format!("deal {deal}: leg {} is not a hedged escrow", leg.leg))?;
    Ok((contract.premium_state(), contract.principal_state()))
}

/// Checks one deal's terminal state; `Err` carries the violation.
fn verify_deal(shards: &[Shard], deal: &Deal) -> Result<(), String> {
    match &deal.expected {
        Expected::Hedged { deviation, legs } => {
            let leader = hedged_leg_state(shards, deal.id, legs[0])?;
            let follower = hedged_leg_state(shards, deal.id, legs[1])?;
            let expect = |name: &str,
                          got: (HedgedPremiumState, HedgedPrincipalState),
                          premium: HedgedPremiumState,
                          principal: HedgedPrincipalState|
             -> Result<(), String> {
                if got != (premium, principal) {
                    return Err(format!(
                        "deal {} ({deviation:?}): {name} leg ended {:?}/{:?}, expected \
                         {premium:?}/{principal:?}",
                        deal.id, got.0, got.1
                    ));
                }
                Ok(())
            };
            match deviation {
                HedgedDeviation::Clean => {
                    expect(
                        "leader",
                        leader,
                        HedgedPremiumState::Refunded,
                        HedgedPrincipalState::Redeemed,
                    )?;
                    expect(
                        "follower",
                        follower,
                        HedgedPremiumState::Refunded,
                        HedgedPrincipalState::Redeemed,
                    )
                }
                HedgedDeviation::FollowerWalks => {
                    // The sore loser's unfunded leg refunds the leader's
                    // premium; the leader's locked leg pays `p_b` out as
                    // compensation — the hedged-theorem payoff.
                    expect(
                        "follower",
                        follower,
                        HedgedPremiumState::Refunded,
                        HedgedPrincipalState::NotEscrowed,
                    )?;
                    expect(
                        "leader",
                        leader,
                        HedgedPremiumState::PaidToEscrower,
                        HedgedPrincipalState::Refunded,
                    )
                }
                HedgedDeviation::LeaderWalks => {
                    expect(
                        "leader",
                        leader,
                        HedgedPremiumState::PaidToEscrower,
                        HedgedPrincipalState::Refunded,
                    )?;
                    expect(
                        "follower",
                        follower,
                        HedgedPremiumState::PaidToEscrower,
                        HedgedPrincipalState::Refunded,
                    )
                }
            }
        }
        Expected::Ring { legs } => {
            for leg in legs {
                let addr = leg_addr(shards, deal.id, *leg)?;
                let state = shards[leg.shard as usize]
                    .chain()
                    .contract_as::<HtlcEscrow>(addr.contract)
                    .ok_or_else(|| format!("deal {}: leg {} is not an HTLC", deal.id, leg.leg))?
                    .state();
                if state != HtlcState::Redeemed {
                    return Err(format!(
                        "deal {}: ring leg {} ended {state:?}, expected Redeemed",
                        deal.id, leg.leg
                    ));
                }
            }
            Ok(())
        }
        Expected::Auction { coin, ticket, winner, winning_bid } => {
            let coin_addr = leg_addr(shards, deal.id, *coin)?;
            let outcome = shards[coin.shard as usize]
                .chain()
                .contract_as::<AuctionCoinContract>(coin_addr.contract)
                .ok_or_else(|| format!("deal {}: coin leg missing", deal.id))?
                .outcome();
            let expected = AuctionOutcome::Completed { winner: *winner, winning_bid: *winning_bid };
            if outcome != Some(expected) {
                return Err(format!(
                    "deal {}: auction ended {outcome:?}, expected {expected:?}",
                    deal.id
                ));
            }
            let ticket_addr = leg_addr(shards, deal.id, *ticket)?;
            let tickets = shards[ticket.shard as usize]
                .chain()
                .contract_as::<AuctionTicketContract>(ticket_addr.contract)
                .ok_or_else(|| format!("deal {}: ticket leg missing", deal.id))?;
            if !tickets.settled() || tickets.winner() != Some(*winner) {
                return Err(format!(
                    "deal {}: tickets went to {:?}, expected {winner}",
                    deal.id,
                    tickets.winner()
                ));
            }
            Ok(())
        }
    }
}

fn build_report(cfg: &MarketConfig, rounds: u32, shards: &[Shard]) -> MarketReport {
    let mut settled = 0u32;
    let mut settled_by_kind = SettledByKind::default();
    let mut settled_per_shard = vec![0u32; shards.len()];
    let mut latencies: Vec<u32> = Vec::new();
    let mut violations = 0u32;
    let mut violation_details: Vec<String> = Vec::new();
    let record = |violation: String, violations: &mut u32, details: &mut Vec<String>| {
        *violations += 1;
        if details.len() < MAX_REPORTED_VIOLATIONS {
            details.push(violation);
        }
    };

    for shard in shards {
        for deal in shard.deals() {
            match verify_deal(shards, deal) {
                Ok(()) => {
                    settled += 1;
                    settled_per_shard[shard.id() as usize] += 1;
                    latencies.push(deal.latency_rounds());
                    match deal.kind {
                        DealKind::HedgedSwap => settled_by_kind.hedged_swap += 1,
                        DealKind::Cycle3 => settled_by_kind.cycle3 += 1,
                        DealKind::Auction => settled_by_kind.auction += 1,
                        DealKind::Brokered => settled_by_kind.brokered += 1,
                    }
                }
                Err(detail) => record(detail, &mut violations, &mut violation_details),
            }
        }
        for failure in shard.failures() {
            record(failure.clone(), &mut violations, &mut violation_details);
        }
    }

    let meterings: Vec<ShardMetering> =
        shards.iter().map(|s| metering::meter_shard(s, cfg.endowment, cfg.gas_price)).collect();
    for (shard, m) in shards.iter().zip(&meterings) {
        for violation in metering::conservation_violations(m, shard.minted_per_asset()) {
            record(violation, &mut violations, &mut violation_details);
        }
    }

    latencies.sort_unstable();
    let gas_total: u64 = meterings.iter().map(|m| m.gas).sum();
    let reorg_stats: Vec<chainsim::ReorgStats> = shards.iter().map(Shard::reorg_stats).collect();
    MarketReport {
        seed: cfg.seed,
        shards: cfg.shards,
        accounts: cfg.accounts,
        deals: cfg.deals,
        deals_per_round: cfg.deals_per_round,
        delta_blocks: cfg.delta_blocks,
        gas_price: cfg.gas_price,
        walkaway_percent: cfg.walkaway_percent,
        reorg_interval: cfg.reorg_interval,
        reorg_depth: cfg.reorg_depth,
        rounds,
        settled,
        settled_by_kind,
        violations,
        violation_details,
        latency_p50_rounds: percentile(&latencies, 50),
        latency_p99_rounds: percentile(&latencies, 99),
        latency_max_rounds: latencies.last().copied().unwrap_or(0),
        gas_total,
        gas_per_deal: gas_total / u64::from(cfg.deals.max(1)),
        fees_total: meterings.iter().map(|m| m.fees).sum(),
        calls: meterings.iter().map(|m| m.calls).sum(),
        failed_calls: meterings.iter().map(|m| m.failed_calls).sum(),
        reorgs: reorg_stats.iter().map(|r| r.reorgs).sum(),
        reorg_rewound_calls: reorg_stats.iter().map(|r| r.rewound_calls).sum(),
        reorg_redelivered_calls: reorg_stats.iter().map(|r| r.redelivered_calls).sum(),
        reorg_redelivery_failures: reorg_stats.iter().map(|r| r.redelivery_failures).sum(),
        shard_summaries: shards
            .iter()
            .zip(&meterings)
            .map(|(shard, m)| ShardSummary {
                shard: shard.id(),
                deals_home: shard.deals().len() as u32,
                settled_home: settled_per_shard[shard.id() as usize],
                gas: m.gas,
                fees: m.fees,
                calls: m.calls,
                failed_calls: m.failed_calls,
                token_supply: m.token_supply,
                native_supply: m.native_supply,
                contract_residue: m.contract_residue,
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_cfg() -> MarketConfig {
        MarketConfig {
            seed: 11,
            shards: 3,
            accounts: 200,
            deals: 60,
            deals_per_round: 10,
            workers: 1,
            ..MarketConfig::default()
        }
    }

    #[test]
    fn smoke_market_settles_every_deal() {
        let run = run_market(&smoke_cfg());
        let report = &run.report;
        assert_eq!(report.violations, 0, "violations: {:?}", report.violation_details);
        assert_eq!(report.settled, 60);
        assert_eq!(report.failed_calls, 0);
        assert!(report.gas_total > 0);
        assert!(report.latency_p50_rounds >= 5);
        assert!(report.latency_max_rounds <= 8);
        assert!(run.total >= run.setup + run.execute, "the whole run covers both phases");
        assert!(run.us_per_settled_deal() > 0.0);
        let by_kind = report.settled_by_kind;
        assert_eq!(by_kind.hedged_swap + by_kind.cycle3 + by_kind.auction + by_kind.brokered, 60);
    }

    #[test]
    fn single_shard_market_settles() {
        let cfg = MarketConfig { shards: 1, deals: 30, ..smoke_cfg() };
        let run = run_market(&cfg);
        assert_eq!(run.report.violations, 0, "{:?}", run.report.violation_details);
        assert_eq!(run.report.settled, 30);
    }

    #[test]
    fn worker_count_does_not_change_the_report() {
        let base = run_market(&smoke_cfg()).report;
        for workers in [2, 4] {
            let cfg = MarketConfig { workers, ..smoke_cfg() };
            let run = run_market(&cfg);
            assert_eq!(run.report, base, "workers={workers} diverged");
            assert_eq!(run.report.canonical_string(), base.canonical_string());
        }
    }

    fn reorg_cfg() -> MarketConfig {
        MarketConfig { reorg_interval: 3, reorg_depth: 1, ..smoke_cfg() }
    }

    #[test]
    fn depth_one_reorgs_are_observationally_harmless() {
        // A depth-1 redelivering reorg rewinds only the open round and
        // replays it verbatim, so settlement must match the no-reorg
        // baseline exactly — only the reorg counters (and the config echo)
        // may differ.
        let baseline = run_market(&smoke_cfg()).report;
        let report = run_market(&reorg_cfg()).report;
        assert!(report.reorgs > 0, "the injector never fired");
        assert_eq!(report.reorg_redelivered_calls, report.reorg_rewound_calls);
        assert_eq!(report.reorg_redelivery_failures, 0);
        assert_eq!(report.violations, 0, "violations: {:?}", report.violation_details);
        assert_eq!(report.settled, baseline.settled);
        assert_eq!(report.settled_by_kind, baseline.settled_by_kind);
        assert_eq!(report.latency_p50_rounds, baseline.latency_p50_rounds);
        assert_eq!(report.latency_max_rounds, baseline.latency_max_rounds);
        assert_eq!(report.shard_summaries, baseline.shard_summaries);
    }

    #[test]
    fn depth_two_reorgs_degrade_unmargined_deals_deterministically() {
        // Market deal plans are compiled without a finality margin, so a
        // depth-2 reorg re-delivers deadline-tight calls up to one round
        // late and some deals miss their windows — the market-scale echo of
        // the zero-margin sore-loser-by-reorg violation the sampled tier
        // pins (and that `finality_margin ≥ depth − 1` repairs there). The
        // degradation must be loud (counted, reported) and reproducible.
        let cfg = MarketConfig { reorg_depth: 2, ..reorg_cfg() };
        let report = run_market(&cfg).report;
        assert!(report.reorgs > 0);
        assert!(report.reorg_rewound_calls > 0, "depth-2 reorgs must rewind work");
        assert!(report.reorg_redelivery_failures > 0, "late re-delivery must miss deadlines");
        assert!(report.violations > 0, "missed deadlines must surface as violations");
        assert!(report.settled < 60 && report.settled > 0, "settled {}", report.settled);
        // Deterministic degradation: the same seed reproduces the same report.
        assert_eq!(run_market(&cfg).report, report);
    }

    #[test]
    fn worker_count_does_not_change_the_report_under_reorgs() {
        let cfg = MarketConfig { reorg_depth: 2, ..reorg_cfg() };
        let base = run_market(&cfg).report;
        assert!(base.reorgs > 0, "the injector never fired");
        for workers in [2, 4, 8] {
            let run = run_market(&MarketConfig { workers, ..cfg.clone() });
            assert_eq!(run.report, base, "workers={workers} diverged under reorgs");
            assert_eq!(run.report.canonical_string(), base.canonical_string());
        }
    }

    #[test]
    fn different_seeds_produce_different_markets() {
        let a = run_market(&smoke_cfg()).report;
        let b = run_market(&MarketConfig { seed: 12, ..smoke_cfg() }).report;
        assert_ne!(a.digest(), b.digest());
    }
}
