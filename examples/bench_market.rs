//! Machine-readable market-settlement throughput report.
//!
//! Runs the market-scale settlement engine (`marketsim::market`) at a
//! pinned seed and worker counts 1, 2, 4 and 8, asserts the engine's two
//! hard promises — zero violations (every deal reaches its hedged-theorem
//! terminal state, funds conserve fee-adjusted on every shard) and a
//! byte-identical settlement report across worker counts — and writes
//! `BENCH_market.json` with settled-deals/sec, p50/p99 settlement latency
//! in rounds, and gas-per-deal, plus the 1-worker setup, execute and
//! whole-run times (and whole-run microseconds per settled deal) of the
//! market with and without reorg injection.
//!
//! ```text
//! cargo run --release --example bench_market
//! ```
//!
//! The committed `BENCH_market.json` holds the full-scale numbers: 8 chain
//! shards × 120,000 accounts each, 2,000 deals. CI reruns the same binary
//! with `BENCH_MARKET_SMOKE=1` — a small deal count on the same shard
//! topology — so the correctness assertions and the JSON schema are
//! exercised on every push without the full-scale runtime.

use std::fmt::Write as _;

use sore_loser_hedging::marketsim::market::driver::MarketRun;
use sore_loser_hedging::marketsim::market::{run_market, MarketConfig};

/// The pinned seed of the committed benchmark run.
const SEED: u64 = 0x005E_771E_5EED;

/// Worker counts benchmarked; the report must be identical across all.
const WORKER_COUNTS: [u32; 4] = [1, 2, 4, 8];

fn config(smoke: bool) -> MarketConfig {
    let base = MarketConfig {
        seed: SEED,
        shards: 8,
        delta_blocks: 2,
        workers: 1,
        gas_price: 3,
        endowment: 1_000_000_000,
        walkaway_percent: 10,
        ..MarketConfig::default()
    };
    if smoke {
        // Same shard topology (contention pattern), small deal count.
        MarketConfig { accounts: 16_000, deals: 300, deals_per_round: 32, ..base }
    } else {
        MarketConfig { accounts: 120_000, deals: 2_000, deals_per_round: 64, ..base }
    }
}

fn main() {
    let smoke = std::env::var("BENCH_MARKET_SMOKE").as_deref() == Ok("1");
    let cfg = config(smoke);

    println!("=== market settlement throughput (seed {SEED:#x}, smoke={smoke}) ===");
    println!(
        "{} shards x {} accounts, {} deals ({} per round), delta={} blocks",
        cfg.shards, cfg.accounts, cfg.deals, cfg.deals_per_round, cfg.delta_blocks
    );
    println!("workers | settled | deals/sec | setup s | execute s | total s | us/deal");

    // One untimed warm-up run: the first market pays the allocator's and
    // page cache's cold-start costs, which would otherwise be billed
    // entirely to the first measured worker count.
    let warmup = run_market(&cfg);
    assert_eq!(warmup.report.violations, 0, "warm-up run violated invariants");

    let mut runs = Vec::new();
    for &workers in &WORKER_COUNTS {
        let run = run_market(&MarketConfig { workers, ..cfg.clone() });
        assert_eq!(
            run.report.violations, 0,
            "workers={workers}: market violated invariants: {:?}",
            run.report.violation_details
        );
        assert_eq!(run.report.settled, cfg.deals, "workers={workers}: not every deal settled");
        println!(
            "{workers} | {} | {:.0} | {:.3} | {:.3} | {:.3} | {:.1}",
            run.report.settled,
            run.settled_per_sec(),
            run.setup.as_secs_f64(),
            run.execute.as_secs_f64(),
            run.total.as_secs_f64(),
            run.us_per_settled_deal()
        );
        runs.push((workers, run));
    }

    // The determinism promise, enforced where the numbers are produced:
    // every worker count yields the byte-identical settlement report.
    let base = &runs[0].1.report;
    for (workers, run) in &runs[1..] {
        assert_eq!(
            run.report.canonical_string(),
            base.canonical_string(),
            "workers={workers}: settlement report diverged from 1-worker run"
        );
    }
    let digest = base.digest();
    println!("report digest {digest} identical across workers {WORKER_COUNTS:?}");

    if !smoke {
        // Acceptance floor of the committed run.
        assert!(base.settled >= 1_000, "committed run must settle >= 1000 deals");
        assert!(base.accounts >= 100_000, "committed run must use >= 100k shared accounts");
    }

    // The same market under seed-pinned reorg injection: every shard chain
    // keeps a depth-1 finality window and fires a redelivering reorg
    // roughly every 4 rounds. Depth-1 rewinds replay the open round
    // verbatim, so settlement must stay clean — and the report must stay
    // byte-identical across worker counts with reorgs firing.
    let reorg_cfg = MarketConfig { reorg_interval: 4, reorg_depth: 1, ..cfg.clone() };
    let reorg_run = run_market(&reorg_cfg);
    let reorg_base = &reorg_run.report;
    assert!(reorg_base.reorgs > 0, "reorg injector never fired");
    assert_eq!(
        reorg_base.violations, 0,
        "depth-1 reorgs must not break settlement: {:?}",
        reorg_base.violation_details
    );
    assert_eq!(reorg_base.settled, cfg.deals, "reorg run: not every deal settled");
    for &workers in &WORKER_COUNTS[1..] {
        let run = run_market(&MarketConfig { workers, ..reorg_cfg.clone() });
        assert_eq!(
            run.report.canonical_string(),
            reorg_base.canonical_string(),
            "workers={workers}: reorg-run report diverged from 1-worker run"
        );
    }
    let reorg_digest = reorg_base.digest();
    println!(
        "reorg run: {} reorgs, {} calls rewound+replayed, digest {reorg_digest} identical \
         across workers {WORKER_COUNTS:?}",
        reorg_base.reorgs, reorg_base.reorg_rewound_calls
    );
    println!(
        "reorg run (1 worker): setup {:.3} s, execute {:.3} s, total {:.3} s, {:.1} us/deal",
        reorg_run.setup.as_secs_f64(),
        reorg_run.execute.as_secs_f64(),
        reorg_run.total.as_secs_f64(),
        reorg_run.us_per_settled_deal()
    );

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"market_settlement\",\n");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    json.push_str("  \"config\": {\n");
    let _ = writeln!(json, "    \"seed\": \"{SEED:#x}\",");
    let _ = writeln!(json, "    \"shards\": {},", cfg.shards);
    let _ = writeln!(json, "    \"accounts_per_shard\": {},", cfg.accounts);
    let _ = writeln!(json, "    \"deals\": {},", cfg.deals);
    let _ = writeln!(json, "    \"deals_per_round\": {},", cfg.deals_per_round);
    let _ = writeln!(json, "    \"delta_blocks\": {},", cfg.delta_blocks);
    let _ = writeln!(json, "    \"gas_price\": {},", cfg.gas_price);
    let _ = writeln!(json, "    \"walkaway_percent\": {}", cfg.walkaway_percent);
    json.push_str("  },\n");
    json.push_str("  \"report\": {\n");
    let _ = writeln!(json, "    \"rounds\": {},", base.rounds);
    let _ = writeln!(json, "    \"settled\": {},", base.settled);
    json.push_str("    \"settled_by_kind\": {\n");
    let _ = writeln!(json, "      \"hedged_swap\": {},", base.settled_by_kind.hedged_swap);
    let _ = writeln!(json, "      \"cycle3\": {},", base.settled_by_kind.cycle3);
    let _ = writeln!(json, "      \"auction\": {},", base.settled_by_kind.auction);
    let _ = writeln!(json, "      \"brokered\": {}", base.settled_by_kind.brokered);
    json.push_str("    },\n");
    let _ = writeln!(json, "    \"violations\": {},", base.violations);
    let _ = writeln!(json, "    \"latency_p50_rounds\": {},", base.latency_p50_rounds);
    let _ = writeln!(json, "    \"latency_p99_rounds\": {},", base.latency_p99_rounds);
    let _ = writeln!(json, "    \"latency_max_rounds\": {},", base.latency_max_rounds);
    let _ = writeln!(json, "    \"gas_total\": {},", base.gas_total);
    let _ = writeln!(json, "    \"gas_per_deal\": {},", base.gas_per_deal);
    let _ = writeln!(json, "    \"fees_total\": {},", base.fees_total);
    let _ = writeln!(json, "    \"calls\": {},", base.calls);
    let _ = writeln!(json, "    \"failed_calls\": {},", base.failed_calls);
    let _ = writeln!(json, "    \"digest\": \"{digest}\"");
    json.push_str("  },\n");
    json.push_str("  \"reorg_run\": {\n");
    let _ = writeln!(json, "    \"reorg_interval\": {},", reorg_cfg.reorg_interval);
    let _ = writeln!(json, "    \"reorg_depth\": {},", reorg_cfg.reorg_depth);
    let _ = writeln!(json, "    \"reorgs\": {},", reorg_base.reorgs);
    let _ = writeln!(json, "    \"rewound_calls\": {},", reorg_base.reorg_rewound_calls);
    let _ = writeln!(json, "    \"redelivered_calls\": {},", reorg_base.reorg_redelivered_calls);
    let _ =
        writeln!(json, "    \"redelivery_failures\": {},", reorg_base.reorg_redelivery_failures);
    let _ = writeln!(json, "    \"settled\": {},", reorg_base.settled);
    let _ = writeln!(json, "    \"violations\": {},", reorg_base.violations);
    let _ = writeln!(json, "    \"digest\": \"{reorg_digest}\",");
    write_timing(&mut json, &reorg_run);
    json.push_str("  },\n");
    json.push_str("  \"main_run_1_worker\": {\n");
    write_timing(&mut json, &runs[0].1);
    json.push_str("  },\n");
    json.push_str("  \"settled_deals_per_sec\": {\n");
    for (i, (workers, run)) in runs.iter().enumerate() {
        let comma = if i + 1 < runs.len() { "," } else { "" };
        let _ = writeln!(json, "    \"{workers}\": {:.0}{comma}", run.settled_per_sec());
    }
    json.push_str("  },\n");
    json.push_str("  \"execute_seconds\": {\n");
    for (i, (workers, run)) in runs.iter().enumerate() {
        let comma = if i + 1 < runs.len() { "," } else { "" };
        let _ = writeln!(json, "    \"{workers}\": {:.4}{comma}", run.execute.as_secs_f64());
    }
    json.push_str("  }\n}\n");

    std::fs::write("BENCH_market.json", &json).expect("write BENCH_market.json");
    println!("wrote BENCH_market.json ({} bytes)", json.len());
}

/// Writes `run`'s setup, execute and whole-run seconds and its whole-run
/// microseconds per settled deal as the closing fields of a JSON object.
fn write_timing(json: &mut String, run: &MarketRun) {
    let _ = writeln!(json, "    \"setup_seconds\": {:.4},", run.setup.as_secs_f64());
    let _ = writeln!(json, "    \"execute_seconds\": {:.4},", run.execute.as_secs_f64());
    let _ = writeln!(json, "    \"total_seconds\": {:.4},", run.total.as_secs_f64());
    let _ = writeln!(json, "    \"us_per_settled_deal\": {:.2}", run.us_per_settled_deal());
}
