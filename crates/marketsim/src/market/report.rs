//! The canonical settlement report.
//!
//! A report captures everything a market run produced *except* wall-clock
//! timing: settlement counts, latency percentiles, gas and fee totals, and
//! per-shard accounting. Its [`MarketReport::canonical_string`] is a
//! line-oriented rendering of every field in a fixed order, and the digest
//! is FNV-1a 64 over those bytes — so "byte-identical reports" is a single
//! string (or digest) comparison. The worker count is deliberately absent:
//! the engine promises it cannot change any of this.

use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

/// Per-shard slice of the report.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardSummary {
    /// The shard id.
    pub shard: u32,
    /// Home deals scheduled on this shard.
    pub deals_home: u32,
    /// Home deals that settled correctly.
    pub settled_home: u32,
    /// Total gas metered on the shard's chain.
    pub gas: u64,
    /// Virtual fees (`gas × gas_price`).
    pub fees: u128,
    /// Contract calls executed on the shard.
    pub calls: u64,
    /// Failed contract calls (zero on a correct run).
    pub failed_calls: u64,
    /// End-of-run token supply (equals the minted endowment).
    pub token_supply: u128,
    /// End-of-run native supply (equals the minted endowment).
    pub native_supply: u128,
    /// Units stranded in contract accounts (zero on a correct run).
    pub contract_residue: u128,
}

/// Settled-deal counts by kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SettledByKind {
    /// §5.2 hedged swaps (including scripted walk-aways, which settle via
    /// the premium machinery).
    pub hedged_swap: u32,
    /// Three-party HTLC cycles.
    pub cycle3: u32,
    /// §9 hedged auctions.
    pub auction: u32,
    /// Brokered sales.
    pub brokered: u32,
}

/// The settlement report of one market run.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MarketReport {
    /// The run's seed.
    pub seed: u64,
    /// Number of chain shards.
    pub shards: u32,
    /// Size of the shared account pool (per shard).
    pub accounts: u32,
    /// Deals scheduled.
    pub deals: u32,
    /// Deals started per round.
    pub deals_per_round: u32,
    /// The synchrony bound Δ in blocks.
    pub delta_blocks: u64,
    /// Fee per gas unit.
    pub gas_price: u64,
    /// Scripted walk-away share of hedged swaps, in percent.
    pub walkaway_percent: u8,
    /// Mean rounds between injected reorgs per shard (0 = injection off).
    #[serde(default)]
    pub reorg_interval: u32,
    /// Finality-window depth of every shard chain and of each injected
    /// reorg (0 = instant finality).
    #[serde(default)]
    pub reorg_depth: u32,
    /// Driver rounds executed.
    pub rounds: u32,
    /// Deals that reached their expected terminal state.
    pub settled: u32,
    /// Settled deals by kind.
    pub settled_by_kind: SettledByKind,
    /// Deals (or shards) that broke an invariant; zero on a correct run.
    pub violations: u32,
    /// The first few violation descriptions.
    pub violation_details: Vec<String>,
    /// Median settlement latency, in rounds.
    pub latency_p50_rounds: u32,
    /// 99th-percentile settlement latency, in rounds.
    pub latency_p99_rounds: u32,
    /// Worst settlement latency, in rounds.
    pub latency_max_rounds: u32,
    /// Total gas metered across shards.
    pub gas_total: u64,
    /// Average gas per scheduled deal.
    pub gas_per_deal: u64,
    /// Total virtual fees across shards.
    pub fees_total: u128,
    /// Total contract calls.
    pub calls: u64,
    /// Total failed contract calls.
    pub failed_calls: u64,
    /// Reorgs fired across all shards.
    #[serde(default)]
    pub reorgs: u64,
    /// Calls rewound out of speculative rounds by those reorgs.
    #[serde(default)]
    pub reorg_rewound_calls: u64,
    /// Rewound calls that re-applied successfully on the rebuilt chain.
    #[serde(default)]
    pub reorg_redelivered_calls: u64,
    /// Rewound calls whose re-application failed (counted, never silent).
    #[serde(default)]
    pub reorg_redelivery_failures: u64,
    /// Per-shard accounting.
    pub shard_summaries: Vec<ShardSummary>,
}

impl MarketReport {
    /// Renders every field in a fixed, line-oriented order. Two runs settle
    /// byte-identically exactly when these strings are equal.
    pub fn canonical_string(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "market seed={} shards={} accounts={} deals={} deals_per_round={} delta={} \
             gas_price={} walkaway={} reorg_interval={} reorg_depth={}",
            self.seed,
            self.shards,
            self.accounts,
            self.deals,
            self.deals_per_round,
            self.delta_blocks,
            self.gas_price,
            self.walkaway_percent,
            self.reorg_interval,
            self.reorg_depth
        );
        let _ = writeln!(
            s,
            "rounds={} settled={} hedged={} cycle3={} auction={} brokered={} violations={}",
            self.rounds,
            self.settled,
            self.settled_by_kind.hedged_swap,
            self.settled_by_kind.cycle3,
            self.settled_by_kind.auction,
            self.settled_by_kind.brokered,
            self.violations
        );
        for v in &self.violation_details {
            let _ = writeln!(s, "violation: {v}");
        }
        let _ = writeln!(
            s,
            "latency p50={} p99={} max={}",
            self.latency_p50_rounds, self.latency_p99_rounds, self.latency_max_rounds
        );
        let _ = writeln!(
            s,
            "gas total={} per_deal={} fees={} calls={} failed={}",
            self.gas_total, self.gas_per_deal, self.fees_total, self.calls, self.failed_calls
        );
        let _ = writeln!(
            s,
            "reorgs fired={} rewound={} redelivered={} redelivery_failures={}",
            self.reorgs,
            self.reorg_rewound_calls,
            self.reorg_redelivered_calls,
            self.reorg_redelivery_failures
        );
        for sh in &self.shard_summaries {
            let _ = writeln!(
                s,
                "shard {} deals={} settled={} gas={} fees={} calls={} failed={} token={} \
                 native={} residue={}",
                sh.shard,
                sh.deals_home,
                sh.settled_home,
                sh.gas,
                sh.fees,
                sh.calls,
                sh.failed_calls,
                sh.token_supply,
                sh.native_supply,
                sh.contract_residue
            );
        }
        s
    }

    /// FNV-1a 64 digest of [`MarketReport::canonical_string`], as a
    /// fixed-width hex string.
    pub fn digest(&self) -> String {
        format!("{:016x}", fnv1a64(self.canonical_string().as_bytes()))
    }
}

/// FNV-1a 64-bit over `bytes` (dependency-free stable hashing; `DefaultHasher`
/// makes no cross-version guarantee).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Nearest-rank percentile of an ascending-sorted slice; zero when empty.
pub fn percentile(sorted: &[u32], pct: u32) -> u32 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() as u64 * u64::from(pct)).div_ceil(100).max(1) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171F73967E8);
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let lat = [5, 5, 6, 6, 6, 8];
        assert_eq!(percentile(&lat, 50), 6);
        assert_eq!(percentile(&lat, 99), 8);
        assert_eq!(percentile(&lat, 100), 8);
        assert_eq!(percentile(&lat, 1), 5);
        assert_eq!(percentile(&[], 50), 0);
    }

    #[test]
    fn canonical_string_distinguishes_reports() {
        let base = MarketReport {
            seed: 1,
            shards: 2,
            accounts: 100,
            deals: 10,
            deals_per_round: 5,
            delta_blocks: 2,
            gas_price: 3,
            walkaway_percent: 10,
            reorg_interval: 0,
            reorg_depth: 0,
            rounds: 11,
            settled: 10,
            settled_by_kind: SettledByKind::default(),
            violations: 0,
            violation_details: Vec::new(),
            latency_p50_rounds: 5,
            latency_p99_rounds: 8,
            latency_max_rounds: 8,
            gas_total: 1000,
            gas_per_deal: 100,
            fees_total: 3000,
            calls: 80,
            failed_calls: 0,
            reorgs: 0,
            reorg_rewound_calls: 0,
            reorg_redelivered_calls: 0,
            reorg_redelivery_failures: 0,
            shard_summaries: Vec::new(),
        };
        let mut other = base.clone();
        assert_eq!(base.canonical_string(), other.canonical_string());
        assert_eq!(base.digest(), other.digest());
        other.settled = 9;
        assert_ne!(base.digest(), other.digest());
        other.settled = base.settled;
        other.reorgs = 3;
        assert_ne!(base.digest(), other.digest());
    }
}
