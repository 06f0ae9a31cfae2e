//! Market-scale settlement engine: thousands of interleaved deals on shared,
//! per-chain-sharded ledgers.
//!
//! Every sweep family in this workspace builds a private [`chainsim::World`]
//! per scenario. Production cross-chain markets are the opposite: many
//! overlapping hedged swaps, multi-party cycles, auctions and brokered sales
//! contend on the *same* ledgers with hundreds of thousands of accounts.
//! This module is that workload:
//!
//! * [`shard`] — one worker-owned [`chainsim::World`] per chain shard.
//!   Cross-chain emissions are queued into per-round batches and delivered
//!   at round boundaries in shard-id order, preserving the Δ-synchronous
//!   semantics (an action emitted in round `r` lands on the remote chain in
//!   round `r + 1`, within Δ) while keeping execution deterministic by
//!   construction for every worker count.
//! * [`deals`] — deal instances drawn from a seed-pinned SplitMix64 mix:
//!   two-party hedged swaps (§5.2, including scripted sore-loser
//!   walk-aways), three-party HTLC cycles, hedged auctions (§9) and
//!   brokered sales, each compiled at spawn into a per-round action plan.
//! * [`driver`] — the round loop: fork-join workers over disjoint shard
//!   chunks, then a single-threaded batch merge.
//! * [`metering`] — gas → fees → payoffs: per-shard gas totals folded into
//!   fee-adjusted conservation checks.
//! * [`report`] — the canonical settlement report: settled-deals count,
//!   latency percentiles, gas-per-deal and a digest that must be
//!   byte-identical across worker counts at the same seed.

pub mod deals;
pub mod driver;
pub mod metering;
pub mod report;
pub mod shard;

pub use driver::run_market;
pub use report::{MarketReport, ShardSummary};

use serde::{Deserialize, Serialize};

/// Configuration of one market run.
///
/// Every field except `workers` participates in the settlement report's
/// canonical string; the worker count is an execution knob the engine
/// guarantees cannot change the report.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MarketConfig {
    /// Seed of the SplitMix64 streams that draw the deal mix.
    pub seed: u64,
    /// Number of chain shards (one chain, one world, one owning worker slot
    /// per shard).
    pub shards: u32,
    /// Size of the shared account pool; every account is materialised on
    /// every shard with both endowments.
    pub accounts: u32,
    /// Total number of deal instances to schedule.
    pub deals: u32,
    /// How many deals start per round (spread deals over time to create
    /// sustained contention instead of one burst).
    pub deals_per_round: u32,
    /// The synchrony bound Δ in blocks; one driver round advances every
    /// shard by Δ.
    pub delta_blocks: u64,
    /// Worker threads executing shard rounds. Must not change the report.
    pub workers: u32,
    /// Fee per unit of gas, folded into party payoffs by [`metering`].
    pub gas_price: u64,
    /// Per-account endowment of both the shard token and the shard native
    /// currency, on every shard. Large enough that overlapping deals never
    /// fail on balance.
    pub endowment: u128,
    /// Percent (0–100) of hedged swaps whose follower walks away after the
    /// premium phase, and the same share whose leader walks away after
    /// escrow — the scripted sore-loser load.
    pub walkaway_percent: u8,
    /// Mean rounds between reorgs per shard (0 = no reorg injection). When
    /// non-zero, each shard fires a redelivering reorg in any round where a
    /// pure hash of `(seed, shard, round)` lands in the `1/reorg_interval`
    /// bucket — a function of nothing else, so injection is byte-identical
    /// across worker counts by construction.
    #[serde(default)]
    pub reorg_interval: u32,
    /// Finality-window depth of every shard chain, and the depth of each
    /// injected reorg (0 = instant finality). Must be non-zero whenever
    /// `reorg_interval` is non-zero: [`MarketConfig::validate`] rejects
    /// reorg injection without a window to rewind. Depth 1 rewinds and
    /// replays only the open round — observationally identical settlement
    /// with non-zero reorg counters; deeper reorgs re-deliver earlier
    /// rounds' calls up to `depth − 1` rounds late.
    #[serde(default)]
    pub reorg_depth: u32,
}

impl Default for MarketConfig {
    fn default() -> Self {
        MarketConfig {
            seed: 0xC0FFEE,
            shards: 4,
            accounts: 4_000,
            deals: 200,
            deals_per_round: 16,
            delta_blocks: 2,
            workers: 1,
            gas_price: 3,
            endowment: 1_000_000_000,
            walkaway_percent: 10,
            reorg_interval: 0,
            reorg_depth: 0,
        }
    }
}

impl MarketConfig {
    /// The number of driver rounds a run with this config executes: enough
    /// for the last-spawned deal to finish its longest possible plan.
    pub fn rounds(&self) -> u32 {
        let last_start =
            if self.deals == 0 { 0 } else { (self.deals - 1) / self.deals_per_round.max(1) };
        last_start + deals::MAX_SETTLE_OFFSET + 2
    }

    /// Validates the knobs that the engine's invariants rely on.
    ///
    /// # Panics
    ///
    /// Panics on an empty market (zero shards or accounts), a pool too small
    /// to draw distinct parties from, a walk-away share above 100%, or reorg
    /// injection (`reorg_interval > 0`) at `reorg_depth` 0.
    pub fn validate(&self) {
        assert!(self.shards > 0, "market needs at least one shard");
        assert!(self.accounts >= 8, "market needs at least 8 pooled accounts");
        assert!(self.delta_blocks > 0, "Δ must be at least one block");
        assert!(self.walkaway_percent <= 100, "walk-away share is a percent");
        assert!(self.endowment > 0, "parties need endowments");
        assert!(
            self.reorg_interval == 0 || self.reorg_depth > 0,
            "reorg injection needs a non-zero reorg depth"
        );
    }
}

/// The SplitMix64 finalizer: the same stream generator the sampled
/// model-checking tier pins its seeds with, reused so market mixes are
/// reproducible from `(seed, deal index)` alone.
#[derive(Clone, Copy, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next raw draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw in `0..bound` (`bound` must be non-zero).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_reference_stream() {
        // First values of SplitMix64 with seed 0, as published by Vigna.
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(rng.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn rounds_cover_the_last_deal() {
        let cfg = MarketConfig { deals: 100, deals_per_round: 10, ..MarketConfig::default() };
        assert!(cfg.rounds() > 9 + deals::MAX_SETTLE_OFFSET);
        let one = MarketConfig { deals: 1, deals_per_round: 10, ..MarketConfig::default() };
        assert_eq!(one.rounds(), deals::MAX_SETTLE_OFFSET + 2);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn validate_rejects_zero_shards() {
        MarketConfig { shards: 0, ..MarketConfig::default() }.validate();
    }

    #[test]
    #[should_panic(expected = "reorg injection needs a non-zero reorg depth")]
    fn validate_rejects_reorg_injection_without_depth() {
        MarketConfig { reorg_interval: 4, reorg_depth: 0, ..MarketConfig::default() }.validate();
    }
}
