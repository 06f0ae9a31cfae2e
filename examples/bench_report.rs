//! Machine-readable model-checking throughput report.
//!
//! Runs the standard sweep families at 1, 2, 4 and 8 worker threads,
//! measures scenarios/second and per-family scaling efficiency, and writes
//! `BENCH_modelcheck.json` so future optimisation work has a recorded
//! trajectory to compare against. Multi-party sets reach n = 8 at a
//! two-deviator budget thanks to the symmetry + partial-order reduction
//! layer; each family records its `strategies` (documented profiles) next
//! to `scenarios` (executed runs) and the resulting `reduction_ratio`. The committed copy of that file holds the
//! numbers measured for this revision; the `baseline` blocks preserve the
//! PR 2 (pre-zero-allocation) and PR 3 (pre-deviation-tree) numbers on the
//! same class of machine.
//!
//! ```text
//! cargo run --release --example bench_report
//! ```
//!
//! CI runs this as a release smoke test: it must complete and produce valid
//! JSON. With `BENCH_ENFORCE_SCALING=1` the run additionally fails if
//! 2-thread scaling efficiency drops below 0.8 on any large family
//! (≥ [`LARGE_FAMILY_MIN`] scenarios) — the regression PR 3 shipped with —
//! provided the machine actually has a second CPU to scale onto.
//! Single-core boxes skip the gate rather than flake, where "single-core"
//! means *effective* parallelism: hardware threads capped by any cgroup
//! CPU-bandwidth quota, so a quota-throttled container that merely "sees"
//! four threads is still exempt (PR 4 measured ~0.5 as the time-slicing
//! ideal there, which the 0.8 gate would misread as a regression).
//!
//! The `sampled_*` family sets exercise the randomized tier at the pinned
//! [`SAMPLED_SEED`]: every sweep must hold (zero hedged-theorem violations
//! at the pinned seed), the run must execute at least
//! [`MIN_SAMPLED_PROFILES`] randomized deviation profiles in total, and the
//! JSON records each family's reproduction key plus sampled-space/coverage
//! accounting and the rational climber's compliant-party margins.

use std::fmt::Write as _;
use std::num::NonZeroUsize;
use std::time::Instant;

use sore_loser_hedging::modelcheck::engine::{ParallelSweep, ScenarioGen};
use sore_loser_hedging::modelcheck::multi_party_families;
use sore_loser_hedging::modelcheck::sampled::{SampledBootstrap, SampledSweep, MAX_REORG_DEPTH};
use sore_loser_hedging::modelcheck::scenarios::{
    AuctionSweep, BootstrapSweep, BrokerSweep, DealSweep, TwoPartySweep,
};
use sore_loser_hedging::protocols::auction::AuctionConfig;
use sore_loser_hedging::protocols::broker::BrokerConfig;
use sore_loser_hedging::protocols::multi_party::{cycle_config, figure3_config, random_config};
use sore_loser_hedging::protocols::two_party::{min_finality_margin, TwoPartyConfig, ALICE, BOB};

/// 1-thread scenarios/second measured at PR 2 (the `BTreeMap` ledger,
/// eager `format!` traces and per-scenario world construction), kept for
/// trajectory. Measured on the same single-core container class that
/// produced the committed current numbers.
const BASELINE_PR2: &[(&str, u64)] =
    &[("multi-party n=3", 19_556), ("multi-party n=4", 8_275), ("multi-party n=5", 6_938)];

/// 1-thread scenarios/second measured at PR 3 (zero-allocation hot path,
/// but brute-force replay of every scenario and `Arc<Mutex<..>>` memo
/// tables shared across workers), kept for trajectory.
const BASELINE_PR3: &[(&str, u64)] = &[
    ("multi-party n=3", 89_199),
    ("multi-party n=4", 31_873),
    ("multi-party n=5", 29_047),
    ("two-party hedged+base", 181_035),
    ("auction", 139_507),
    ("bootstrap rounds 1-3", 317_235),
];

/// Families at or above this many scenarios are "large": big enough that
/// per-worker setup (prefix recording, world allocation) amortises away and
/// thread-scaling numbers are signal rather than noise. The scaling gate
/// only applies to them.
const LARGE_FAMILY_MIN: usize = 200;

/// Minimum acceptable 2-thread scaling efficiency on large families when
/// `BENCH_ENFORCE_SCALING=1` and the machine has ≥ 2 hardware threads.
const MIN_TWO_THREAD_EFFICIENCY: f64 = 0.8;

/// The pinned seed every `sampled_*` bench family draws from. Holding the
/// seed fixed makes the bench a (statistical) correctness gate too: a
/// violation in any sampled sweep is deterministic and carries its
/// `(seed, sample)` reproduction key.
const SAMPLED_SEED: u64 = 0x5EED_CAFE;

/// Every bench run must execute at least this many randomized deviation
/// profiles across the sampled families (warm-up and measured sweeps at
/// all thread counts combined).
const MIN_SAMPLED_PROFILES: u64 = 1_000_000;

/// Search budget for each rational-climber run recorded in the report.
const CLIMB_BUDGET: usize = 400;

/// Reproduction key and coverage accounting for a `sampled_*` family set.
struct SampledMeta {
    seed: u64,
    samples: usize,
    space: f64,
    coverage: f64,
    /// `Some((finality_depth, finality_margin))` for families that run the
    /// chain-realism overlay; recorded in the JSON so the reproduction key
    /// pins the reorg parameters alongside the seed.
    realism: Option<(u32, u64)>,
}

struct FamilySet {
    name: &'static str,
    gens: Vec<Box<dyn ScenarioGen>>,
    /// `Some` for sampled-tier sets: carries the reproduction key into the
    /// JSON and obliges every sweep of the set to hold.
    sampled: Option<SampledMeta>,
}

/// Wraps one randomized family as a bench set, capturing its reproduction
/// key and how much of the deviation space the budget covers.
fn sampled_set(name: &'static str, family: SampledSweep) -> FamilySet {
    sampled_set_realism(name, family, None)
}

/// Like [`sampled_set`], additionally pinning the chain-realism parameters
/// (finality depth, finality margin) into the reproduction key.
fn sampled_set_realism(
    name: &'static str,
    family: SampledSweep,
    realism: Option<(u32, u64)>,
) -> FamilySet {
    let meta = SampledMeta {
        seed: family.seed(),
        samples: family.samples(),
        space: family.sampled_space(),
        coverage: family.coverage().min(1.0),
        realism,
    };
    FamilySet { name, gens: vec![Box::new(family)], sampled: Some(meta) }
}

fn family_sets() -> Vec<FamilySet> {
    let mut sets = Vec::new();
    // From n = 5 the cycle (and from n = 4 the clique) runs through the
    // symmetry + partial-order reduction layer at a two-deviator budget;
    // n = 7 and 8 exist *because* of it — the unreduced pair spaces
    // (~135k scenarios at n = 8) priced those sizes out entirely. The
    // per-family `reduction_ratio` field records executed runs over
    // documented profiles.
    for n in [3u32, 4, 5, 6, 7, 8] {
        sets.push(FamilySet {
            name: match n {
                3 => "multi-party n=3",
                4 => "multi-party n=4",
                5 => "multi-party n=5",
                6 => "multi-party n=6",
                7 => "multi-party n=7",
                _ => "multi-party n=8",
            },
            gens: multi_party_families(n)
                .into_iter()
                .map(|f| Box::new(f) as Box<dyn ScenarioGen>)
                .collect(),
            sampled: None,
        });
    }
    // A seeded random-digraph batch: eight structurally distinct
    // strongly-connected five-party graphs, one deviator at a time.
    sets.push(FamilySet {
        name: "random digraphs n=5",
        gens: (0..8u64)
            .map(|seed| {
                Box::new(DealSweep::at_most(
                    format!("random-5-4-seed{seed}"),
                    random_config(5, 4, seed),
                    1,
                )) as Box<dyn ScenarioGen>
            })
            .collect(),
        sampled: None,
    });
    sets.push(FamilySet {
        name: "two-party hedged+base",
        gens: vec![
            Box::new(TwoPartySweep::hedged(TwoPartyConfig::default())),
            Box::new(TwoPartySweep::base(TwoPartyConfig::default())),
        ],
        sampled: None,
    });
    sets.push(FamilySet {
        name: "auction",
        gens: vec![Box::new(AuctionSweep::default())],
        sampled: None,
    });
    sets.push(FamilySet {
        name: "brokered sale",
        gens: vec![Box::new(BrokerSweep::at_most(&BrokerConfig::default(), 2))],
        sampled: None,
    });
    sets.push(FamilySet {
        name: "bootstrap rounds 1-3",
        gens: (1..=3)
            .map(|rounds| {
                Box::new(BootstrapSweep::new(5_000, 20_000, 10, rounds)) as Box<dyn ScenarioGen>
            })
            .collect(),
        sampled: None,
    });
    // The sampled tier: randomized deviation profiles drawn from the
    // pinned SAMPLED_SEED. Budgets are sized so a full bench run (warm-up
    // plus measured sweeps at every thread count) executes well past
    // MIN_SAMPLED_PROFILES randomized profiles while each individual sweep
    // stays in the tenths-of-a-second range.
    sets.push(sampled_set(
        "sampled two-party hedged",
        SampledSweep::hedged_two_party(TwoPartyConfig::default(), SAMPLED_SEED, 40_000),
    ));
    // The chain-realism family: both chains at a MAX_REORG_DEPTH finality
    // window, each sample drawing a full-axis strategy profile plus up to
    // one redelivering reorg. The margin-padded deadlines must absorb
    // every re-delivery at `min_finality_margin`, (depth − 1) + (Δ − 1);
    // the budget is smaller than the reorg-free families' because reorg
    // samples run from scratch.
    let margin = min_finality_margin(MAX_REORG_DEPTH, TwoPartyConfig::default().delta_blocks);
    sets.push(sampled_set_realism(
        "sampled two-party hedged under reorgs",
        SampledSweep::hedged_two_party_reorgs(
            TwoPartyConfig { finality_margin: margin, ..TwoPartyConfig::default() },
            SAMPLED_SEED,
            10_000,
        ),
        Some((MAX_REORG_DEPTH, margin)),
    ));
    sets.push(sampled_set(
        "sampled two-party base conforming",
        SampledSweep::base_two_party(TwoPartyConfig::default(), SAMPLED_SEED, 40_000),
    ));
    sets.push(sampled_set(
        "sampled figure3",
        SampledSweep::deal("figure3", figure3_config(), SAMPLED_SEED, 15_000),
    ));
    sets.push(sampled_set(
        "sampled cycle-5",
        SampledSweep::deal("cycle-5", cycle_config(5), SAMPLED_SEED, 8_000),
    ));
    sets.push(sampled_set(
        "sampled auction",
        SampledSweep::auction(AuctionConfig::default(), SAMPLED_SEED, 25_000),
    ));
    let bootstrap = SampledBootstrap::new(5_000, 20_000, 10, 3, SAMPLED_SEED, 25_000);
    let space = bootstrap.sampled_space();
    sets.push(FamilySet {
        name: "sampled bootstrap rounds 3",
        sampled: Some(SampledMeta {
            seed: SAMPLED_SEED,
            samples: 25_000,
            space,
            coverage: (25_000.0 / space).min(1.0),
            realism: None,
        }),
        gens: vec![Box::new(bootstrap)],
    });
    sets
}

/// A single sweep of the fast families lasts only a few milliseconds —
/// far too short to gate on — so each measurement repeats sweeps until at
/// least this much wall time has accumulated (and at least twice), taking
/// the fastest sweep. This keeps the efficiency ratios stable enough for
/// the CI scaling gate on shared runners.
const MIN_MEASURE_SECONDS: f64 = 0.25;

/// Scenarios/second for one family set at one thread count (one warm-up
/// sweep, then the fastest of repeated measured sweeps; see
/// [`MIN_MEASURE_SECONDS`]). Returns `(runs, strategies, rate, sweeps)` —
/// for reduced families `runs < strategies`, the rate counts *executed*
/// scenarios per second, and `sweeps` is the total number of sweeps run
/// (warm-up included) so callers can account executed profiles. With
/// `must_hold` the warm-up summary must be violation-free: the sampled
/// sets use this to make the bench a pinned-seed correctness gate.
fn measure(
    gens: &[Box<dyn ScenarioGen>],
    threads: usize,
    must_hold: bool,
) -> (usize, usize, f64, u64) {
    let refs: Vec<&dyn ScenarioGen> = gens.iter().map(|g| g.as_ref() as &dyn ScenarioGen).collect();
    let sweep = ParallelSweep::new(threads);
    let warmup = sweep.run_all(&refs);
    if must_hold {
        assert!(warmup.holds(), "pinned-seed sweep must hold: {:?}", warmup.violations);
    }
    let mut best = f64::INFINITY;
    let mut spent = 0.0;
    let mut repetitions = 0u64;
    while repetitions < 2 || spent < MIN_MEASURE_SECONDS {
        let start = Instant::now();
        let summary = sweep.run_all(&refs);
        let elapsed = start.elapsed().as_secs_f64();
        assert_eq!(summary.runs, warmup.runs, "sweeps must be deterministic");
        best = best.min(elapsed);
        spent += elapsed;
        repetitions += 1;
    }
    // A coarse clock (or an empty family) can measure ~zero elapsed time;
    // `finite_or_zero` downstream relies on the rate at least being a
    // number, so keep the division away from 0/0 and ∞.
    (
        warmup.runs,
        warmup.strategies,
        finite_or_zero(warmup.runs as f64 / best.max(1e-9)),
        repetitions + 1,
    )
}

/// Clamps NaN/∞ — which `{:.N}`-format as literal `NaN`/`inf` and would
/// corrupt `BENCH_modelcheck.json` — to `0.0`. Tiny families measured on a
/// coarse clock are the practical trigger (`0 runs / ~0 seconds`).
fn finite_or_zero(value: f64) -> f64 {
    if value.is_finite() {
        value
    } else {
        0.0
    }
}

/// The number of CPUs this process can actually scale onto: hardware
/// threads capped by any cgroup CPU-bandwidth quota.
///
/// `available_parallelism` alone over-reports on quota-limited runners (a
/// container can "see" 4 hardware threads while its cgroup time-slices them
/// down to one CPU of bandwidth), and PR 4 measured ~0.5 as the 2-thread
/// time-slicing ideal there — which the 0.8 scaling gate would misread as a
/// contention regression. The gate therefore keys off this value, not the
/// raw thread count.
fn effective_parallelism() -> usize {
    let available = std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1);
    match cgroup_cpu_quota() {
        Some(quota) => available.min(quota.max(1)),
        None => available,
    }
}

/// The cgroup CPU quota in whole CPUs (rounded up), or `None` when
/// unlimited, unreadable or not on a cgroup-managed system.
fn cgroup_cpu_quota() -> Option<usize> {
    // cgroup v2 exposes "<quota|max> <period>" in a single file.
    if let Ok(raw) = std::fs::read_to_string("/sys/fs/cgroup/cpu.max") {
        let mut parts = raw.split_whitespace();
        let quota = parts.next()?;
        if quota == "max" {
            return None;
        }
        let quota: u64 = quota.parse().ok()?;
        let period: u64 = parts.next()?.parse().ok()?;
        return Some(quota.div_ceil(period.max(1)) as usize);
    }
    // cgroup v1 splits quota (µs per period, -1 = unlimited) and period.
    let quota: i64 =
        std::fs::read_to_string("/sys/fs/cgroup/cpu/cpu.cfs_quota_us").ok()?.trim().parse().ok()?;
    if quota < 0 {
        return None;
    }
    let period: u64 = std::fs::read_to_string("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
        .ok()?
        .trim()
        .parse()
        .ok()?;
    Some((quota as u64).div_ceil(period.max(1)) as usize)
}

fn main() {
    let available = std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1);
    let effective = effective_parallelism();
    let thread_counts = [1usize, 2, 4, 8];
    let enforce_scaling = std::env::var("BENCH_ENFORCE_SCALING").as_deref() == Ok("1");

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"modelcheck_parallel\",\n");
    json.push_str("  \"unit\": \"scenarios_per_sec\",\n");
    let _ = writeln!(json, "  \"available_parallelism\": {available},");
    let _ = writeln!(json, "  \"effective_parallelism\": {effective},");
    let _ = writeln!(
        json,
        "  \"thread_counts\": [{}],",
        thread_counts.iter().map(|t| t.to_string()).collect::<Vec<_>>().join(", ")
    );
    json.push_str("  \"baseline_pr2_1_thread\": {\n");
    for (i, (name, rate)) in BASELINE_PR2.iter().enumerate() {
        let comma = if i + 1 < BASELINE_PR2.len() { "," } else { "" };
        let _ = writeln!(json, "    \"{name}\": {rate}{comma}");
    }
    json.push_str("  },\n");
    json.push_str("  \"baseline_pr3_1_thread\": {\n");
    for (i, (name, rate)) in BASELINE_PR3.iter().enumerate() {
        let comma = if i + 1 < BASELINE_PR3.len() { "," } else { "" };
        let _ = writeln!(json, "    \"{name}\": {rate}{comma}");
    }
    json.push_str("  },\n");
    json.push_str("  \"families\": [\n");

    let sets = family_sets();
    let mut violations: Vec<String> = Vec::new();
    let mut sampled_profiles: u64 = 0;
    println!("\n=== model-checking throughput (scenarios/sec) ===");
    println!("family set | scenarios | threads | scenarios/sec | efficiency");
    for (i, set) in sets.iter().enumerate() {
        let must_hold = set.sampled.is_some();
        let mut runs = 0usize;
        let mut strategies = 0usize;
        let mut rates = Vec::new();
        for &threads in &thread_counts {
            let (r, s, rate, sweeps) = measure(&set.gens, threads, must_hold);
            runs = r;
            strategies = s;
            rates.push((threads, rate));
            if must_hold {
                sampled_profiles += r as u64 * sweeps;
            }
        }
        let single = rates[0].1;
        // Scaling efficiency: throughput per thread relative to 1-thread
        // throughput. 1.0 is perfect scaling; 0.5 means half of every
        // added thread is wasted. Only meaningful up to the machine's
        // hardware parallelism. Guarded against a zero/degenerate 1-thread
        // measurement: NaN or ∞ must never reach the JSON report.
        let efficiencies: Vec<(usize, f64)> = rates
            .iter()
            .map(|&(threads, rate)| (threads, finite_or_zero(rate / (single * threads as f64))))
            .collect();
        for (&(threads, rate), &(_, eff)) in rates.iter().zip(&efficiencies) {
            println!("{} | {runs} | {threads} | {rate:.0} | {eff:.2}", set.name);
        }
        if runs >= LARGE_FAMILY_MIN && effective >= 2 {
            let two_thread_eff = efficiencies.iter().find(|(t, _)| *t == 2).map(|(_, e)| *e);
            if let Some(mut eff) = two_thread_eff {
                // A genuine contention regression keeps *every* sample low;
                // scheduler noise only dents some. Before declaring a
                // violation, re-measure the 1/2-thread pair a couple more
                // times and judge the best efficiency observed, so a single
                // noisy-neighbour hiccup cannot fail CI.
                let mut retries = 0;
                while eff < MIN_TWO_THREAD_EFFICIENCY && retries < 2 {
                    let (r1, _, single_rate, s1) = measure(&set.gens, 1, must_hold);
                    let (r2, _, pair_rate, s2) = measure(&set.gens, 2, must_hold);
                    if must_hold {
                        sampled_profiles += r1 as u64 * s1 + r2 as u64 * s2;
                    }
                    eff = eff.max(finite_or_zero(pair_rate / (single_rate * 2.0)));
                    retries += 1;
                }
                if eff < MIN_TWO_THREAD_EFFICIENCY {
                    violations.push(format!(
                        "{}: 2-thread efficiency {eff:.2} < {MIN_TWO_THREAD_EFFICIENCY}                          (best of {} measurements)",
                        set.name,
                        retries + 1
                    ));
                }
            }
        }
        let comma = if i + 1 < sets.len() { "," } else { "" };
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"family\": \"{}\",", set.name);
        let _ = writeln!(json, "      \"scenarios\": {runs},");
        let _ = writeln!(json, "      \"strategies\": {strategies},");
        // Executed runs per documented profile: 1.0 for unreduced sets,
        // below 1.0 where symmetry/POR folds or prunes the space.
        let _ = writeln!(
            json,
            "      \"reduction_ratio\": {:.4},",
            finite_or_zero(runs as f64 / strategies.max(1) as f64)
        );
        // Sampled sets additionally record their reproduction key and how
        // much of the deviation space one sweep's budget covers (coverage
        // saturates at 1.0 for spaces smaller than the budget).
        if let Some(meta) = &set.sampled {
            let _ = writeln!(json, "      \"sampled\": {{");
            let _ = writeln!(json, "        \"seed\": \"{:#x}\",", meta.seed);
            let _ = writeln!(json, "        \"samples_per_sweep\": {},", meta.samples);
            let _ = writeln!(json, "        \"sampled_space\": {:e},", finite_or_zero(meta.space));
            if let Some((depth, margin)) = meta.realism {
                let _ = writeln!(json, "        \"finality_depth\": {depth},");
                let _ = writeln!(json, "        \"finality_margin\": {margin},");
            }
            let _ = writeln!(json, "        \"coverage\": {:e}", finite_or_zero(meta.coverage));
            let _ = writeln!(json, "      }},");
        }
        let _ = writeln!(json, "      \"scenarios_per_sec\": {{");
        for (j, (threads, rate)) in rates.iter().enumerate() {
            let inner_comma = if j + 1 < rates.len() { "," } else { "" };
            let _ = writeln!(json, "        \"{threads}\": {rate:.0}{inner_comma}");
        }
        let _ = writeln!(json, "      }},");
        let _ = writeln!(json, "      \"scaling_efficiency\": {{");
        for (j, (threads, eff)) in efficiencies.iter().enumerate() {
            let inner_comma = if j + 1 < efficiencies.len() { "," } else { "" };
            let _ = writeln!(json, "        \"{threads}\": {eff:.2}{inner_comma}");
        }
        let _ = writeln!(json, "      }}");
        let _ = writeln!(json, "    }}{comma}");
    }
    json.push_str("  ],\n");

    // Sampled-tier accounting: every sampled sweep above already asserted
    // it holds, so reaching this point means zero hedged-theorem
    // violations across all randomized profiles at the pinned seed.
    println!(
        "\nsampled tier: {sampled_profiles} randomized profiles executed at seed {SAMPLED_SEED:#x}"
    );
    assert!(
        sampled_profiles >= MIN_SAMPLED_PROFILES,
        "bench run must execute ≥ {MIN_SAMPLED_PROFILES} randomized profiles, \
         got {sampled_profiles}"
    );

    // Rational-climber margins at the pinned seed: the climber must
    // rediscover the base protocol's sore-loser free-out (a negative
    // compliant-party margin) and must find no profitable deviation
    // against the hedged protocol.
    let climbs = [
        ("base two-party", false, BOB),
        ("hedged two-party", true, ALICE),
        ("hedged two-party", true, BOB),
    ];
    println!("\n=== rational climber (budget {CLIMB_BUDGET}) ===");
    let _ = writeln!(json, "  \"sampled_tier\": {{");
    let _ = writeln!(json, "    \"seed\": \"{SAMPLED_SEED:#x}\",");
    let _ = writeln!(json, "    \"profiles_executed\": {sampled_profiles},");
    let _ = writeln!(json, "    \"rational_climbs\": [");
    for (j, (name, hedged, deviator)) in climbs.iter().enumerate() {
        let config = TwoPartyConfig::default();
        let family = if *hedged {
            SampledSweep::hedged_two_party(config, SAMPLED_SEED, 1)
        } else {
            SampledSweep::base_two_party(config, SAMPLED_SEED, 1)
        };
        let climb = family
            .climb(*deviator, SAMPLED_SEED, CLIMB_BUDGET)
            .expect("two-party families always climb");
        if *hedged {
            assert!(
                climb.compliant_margin >= 0,
                "hedged theorem: no deviation may leave a compliant party \
                 under-compensated, found {climb:?}"
            );
            assert!(
                climb.deviator_payoff <= 0,
                "hedged theorem: deviating must not profit, found {climb:?}"
            );
        } else {
            assert!(
                climb.compliant_margin < 0,
                "negative control: the climber must rediscover the base \
                 protocol's sore-loser attack, found {climb:?}"
            );
        }
        println!(
            "{name} deviator={}: payoff={} compliant_margin={} ({} evaluations)",
            climb.deviator, climb.deviator_payoff, climb.compliant_margin, climb.evaluations
        );
        let comma = if j + 1 < climbs.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "      {{\"family\": \"{name}\", \"deviator\": {}, \"deviator_payoff\": {}, \
             \"compliant_margin\": {}, \"evaluations\": {}, \"improvements\": {}}}{comma}",
            climb.deviator.0,
            climb.deviator_payoff,
            climb.compliant_margin,
            climb.evaluations,
            climb.improvements
        );
    }
    let _ = writeln!(json, "    ]");
    json.push_str("  },\n");

    // Static-analysis suite: run all three staticcheck passes and record
    // the analyzed surface. The gate is zero findings — a finding here
    // means a contract can strand funds, a published deadline ladder is
    // infeasible, or a semantic crate regressed on determinism.
    let static_report = staticcheck::analyze_default_suite();
    assert!(
        static_report.findings.is_empty(),
        "static analysis must be clean for a bench report:\n{}",
        static_report.render()
    );
    println!(
        "\nstaticcheck: {} contracts ({} machines), {} schedules, {} scripts, \
         {} files scanned, {} waivers, 0 findings",
        static_report.contracts_analyzed,
        static_report.machines_analyzed,
        static_report.schedules_checked,
        static_report.scripts_analyzed,
        static_report.files_scanned,
        static_report.waivers
    );
    let _ = writeln!(json, "  \"staticcheck\": {{");
    let _ = writeln!(json, "    \"passes\": {},", staticcheck::SuiteReport::PASSES);
    let _ = writeln!(json, "    \"contracts_analyzed\": {},", static_report.contracts_analyzed);
    let _ = writeln!(json, "    \"machines_analyzed\": {},", static_report.machines_analyzed);
    let _ = writeln!(json, "    \"schedules_checked\": {},", static_report.schedules_checked);
    let _ = writeln!(json, "    \"scripts_analyzed\": {},", static_report.scripts_analyzed);
    let _ = writeln!(json, "    \"files_scanned\": {},", static_report.files_scanned);
    let _ = writeln!(json, "    \"waivers\": {},", static_report.waivers);
    let _ = writeln!(json, "    \"findings\": {}", static_report.findings.len());
    json.push_str("  }\n}\n");

    std::fs::write("BENCH_modelcheck.json", &json).expect("write BENCH_modelcheck.json");
    println!("\nwrote BENCH_modelcheck.json ({} bytes)", json.len());

    if enforce_scaling {
        if effective < 2 {
            println!(
                "BENCH_ENFORCE_SCALING set but only {effective} effective CPU(s) \
                 ({available} hardware thread(s), cgroup-quota capped); skipping the \
                 scaling gate (2-thread wall-clock gains are impossible here)."
            );
        } else {
            assert!(
                violations.is_empty(),
                "2-thread scaling efficiency regressed on large families:\n  {}",
                violations.join("\n  ")
            );
            println!(
                "scaling gate passed: every large family ≥ {MIN_TWO_THREAD_EFFICIENCY} at 2 threads"
            );
        }
    }
}
