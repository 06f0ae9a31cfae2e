//! The four workloads: their inputs (drawn from the workload seed), their
//! untraced measurement loops and their correctness gates.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::time::Instant;

use marketsim::market::report::fnv1a64;
use marketsim::market::{run_market, MarketConfig, MarketReport};
use modelcheck::engine::{ParallelSweep, ScenarioGen};
use modelcheck::sampled::{SampledBootstrap, SampledSweep, MAX_REORG_DEPTH};
use modelcheck::scenarios::{
    bounded_profile_count, AuctionSweep, BootstrapSweep, BrokerSweep, DealSweep, TwoPartySweep,
};
use modelcheck::{multi_party_families, CheckSummary};
use protocols::auction::AuctionConfig;
use protocols::broker::BrokerConfig;
use protocols::deal::DealConfig;
use protocols::multi_party::{clique_config, cycle_config, figure3_config, random_config};
use protocols::script::Strategy;
use protocols::two_party::{self, TwoPartyConfig};

use crate::stats::{derive_seed, median};

/// A named set of inputs the benchmark runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The enumerated model-checking tier: high prefix sharing.
    Sweep,
    /// The randomized model-checking tier: low prefix sharing.
    Sampled,
    /// The committed reorg-run shape: depth-1 finality on every shard.
    MarketReorg,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Sweep, Workload::Sampled, Workload::MarketReorg];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Sweep => "sweep",
            Workload::Sampled => "sampled",
            Workload::MarketReorg => "market_reorg",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs the market engine (else the model checker).
    pub fn is_market(self) -> bool {
        self == Workload::MarketReorg
    }
}

/// Input size: the measured size, or a tiny one for smoke tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` is tuned for.
    Full,
    /// Seconds-long inputs with the same shape, for the benchmark's tests.
    Smoke,
}

/// The layer key a model-checking family's time is reported under
/// (`modelcheck.family_us.<key>`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// Two-party swaps, enumerated or sampled, hedged or base.
    TwoParty,
    /// Directed-cycle deals.
    Cycle,
    /// Complete-digraph deals.
    Clique,
    /// The brokered sale.
    Broker,
    /// The auction.
    Auction,
    /// Premium bootstrapping.
    Bootstrap,
    /// Seeded random strongly-connected digraphs.
    Random,
    /// The hedged swap under finality windows and reorgs.
    Reorg,
    /// Sampled generic deal configurations (Figure 3).
    Deal,
}

impl Kind {
    /// Every kind, in metric order.
    pub const ALL: [Kind; 9] = [
        Kind::TwoParty,
        Kind::Cycle,
        Kind::Clique,
        Kind::Broker,
        Kind::Auction,
        Kind::Bootstrap,
        Kind::Random,
        Kind::Reorg,
        Kind::Deal,
    ];

    /// The metric-name key.
    pub fn key(self) -> &'static str {
        match self {
            Kind::TwoParty => "two_party",
            Kind::Cycle => "cycle",
            Kind::Clique => "clique",
            Kind::Broker => "broker",
            Kind::Auction => "auction",
            Kind::Bootstrap => "bootstrap",
            Kind::Random => "random",
            Kind::Reorg => "reorg",
            Kind::Deal => "deal",
        }
    }

    /// The span wrapping `ParallelSweep::run` on a family of this kind.
    pub fn run_span(self) -> &'static str {
        match self {
            Kind::TwoParty => "modelcheck.run.two_party",
            Kind::Cycle => "modelcheck.run.cycle",
            Kind::Clique => "modelcheck.run.clique",
            Kind::Broker => "modelcheck.run.broker",
            Kind::Auction => "modelcheck.run.auction",
            Kind::Bootstrap => "modelcheck.run.bootstrap",
            Kind::Random => "modelcheck.run.random",
            Kind::Reorg => "modelcheck.run.reorg",
            Kind::Deal => "modelcheck.run.deal",
        }
    }

    /// The span wrapping the direct `ScenarioGen::check` loop over a family.
    pub fn check_span(self) -> &'static str {
        match self {
            Kind::TwoParty => "modelcheck.check.two_party",
            Kind::Cycle => "modelcheck.check.cycle",
            Kind::Clique => "modelcheck.check.clique",
            Kind::Broker => "modelcheck.check.broker",
            Kind::Auction => "modelcheck.check.auction",
            Kind::Bootstrap => "modelcheck.check.bootstrap",
            Kind::Random => "modelcheck.check.random",
            Kind::Reorg => "modelcheck.check.reorg",
            Kind::Deal => "modelcheck.check.deal",
        }
    }
}

/// One model-checking family plus the closed forms its summary must meet.
pub struct Family {
    /// The layer key its time is reported under.
    pub kind: Kind,
    /// The scenario family.
    pub gen: Box<dyn ScenarioGen>,
    /// Closed-form size of the documented profile space.
    pub strategies: usize,
    /// Closed-form executed runs; `None` for symmetry-reduced families,
    /// whose run count a better reduction may lower.
    pub runs: Option<usize>,
    /// Violations the family must report: 62 for the base swap (the
    /// negative control), 0 for every hedged family.
    pub violations: usize,
}

/// The base (unhedged) swap's known sore-loser violations over its full
/// 31 × 31 space at the default configuration.
pub const BASE_SWAP_VIOLATIONS: usize = 62;

fn deal_deviating() -> usize {
    protocols::deal::strategy_space().len() - 1
}

fn family(kind: Kind, gen: impl ScenarioGen + 'static, strategies: usize) -> Family {
    Family { kind, gen: Box::new(gen), strategies, runs: Some(strategies), violations: 0 }
}

/// A sampled family of `samples` profiles: its closed form is the budget.
fn sampled<G: ScenarioGen + 'static>(
    kind: Kind,
    samples: usize,
    make: impl FnOnce(usize) -> G,
) -> Family {
    family(kind, make(samples), samples)
}

fn bounded_deal(kind: Kind, name: String, config: DealConfig, max_deviators: usize) -> Family {
    let parties = config.parties().len();
    let space = bounded_profile_count(parties, deal_deviating(), max_deviators);
    family(kind, DealSweep::at_most(name, config, max_deviators), space)
}

fn two_party_families() -> Vec<Family> {
    let hedged = Strategy::space_size(two_party::SCRIPT_STEPS);
    let base = Strategy::space_size(two_party::BASE_SCRIPT_STEPS);
    vec![
        family(Kind::TwoParty, TwoPartySweep::hedged(TwoPartyConfig::default()), hedged * hedged),
        Family {
            violations: BASE_SWAP_VIOLATIONS,
            ..family(Kind::TwoParty, TwoPartySweep::base(TwoPartyConfig::default()), base * base)
        },
    ]
}

fn broker_family(max_deviators: usize) -> Family {
    let space = bounded_profile_count(3, deal_deviating(), max_deviators);
    family(Kind::Broker, BrokerSweep::at_most(&BrokerConfig::default(), max_deviators), space)
}

fn auction_family() -> Family {
    let config = AuctionConfig::default();
    let parties = config.bidders().len() + 1;
    let deviating = protocols::auction::strategy_space().len() - 1;
    family(Kind::Auction, AuctionSweep::new(config), 3 * (1 + parties * deviating))
}

fn bootstrap_family(rounds: u32) -> Family {
    family(
        Kind::Bootstrap,
        BootstrapSweep::new(5_000, 20_000, 10, rounds),
        1 + 6 * (rounds as usize + 1),
    )
}

/// Random digraphs are drawn from the graph seeds below this bound, every
/// one of which holds. About one five-party digraph in twenty with four
/// extra arcs breaks the hedged theorem with a single deviator (the first
/// is seed 33; also 143, 149, 157, ...), an open finding of the program's;
/// widening this pool belongs to fixing it.
pub const RANDOM_GRAPH_POOL: u64 = 32;

/// The graph seeds of a workload's random-digraph batch: `count` distinct
/// seeds from the pool, chosen by `seed`.
pub fn random_graph_seeds(seed: u64, count: usize) -> Vec<u64> {
    let mut pool: Vec<u64> = (0..RANDOM_GRAPH_POOL).collect();
    let mut rng = marketsim::market::SplitMix64::new(derive_seed(seed, 0x4752_4150));
    for i in 0..count.min(pool.len()) {
        let j = i + rng.below((pool.len() - i) as u64) as usize;
        pool.swap(i, j);
    }
    pool.truncate(count);
    pool
}

fn random_family(graph_seed: u64) -> Family {
    let config = random_config(5, 4, graph_seed);
    bounded_deal(Kind::Random, format!("random-5-4-seed{graph_seed}"), config, 1)
}

/// The enumerated tier: every deviation profile of the §5–§9 protocols.
///
/// Multi-party cycles and cliques on 3–5 parties at two deviators
/// (`multi_party_families`: cliques symmetry-reduced from n = 4, cycles
/// from n = 5), the brokered sale at two deviators, the hedged and base
/// two-party swaps, the auction, bootstrap rounds 1–3, and a batch of
/// random strongly-connected five-party digraphs drawn from `seed`.
pub fn sweep_families(seed: u64, scale: Scale) -> Vec<Family> {
    let (max_parties, broker_deviators, graphs) = match scale {
        Scale::Full => (5, 2, 8),
        Scale::Smoke => (3, 1, 2),
    };
    let mut families = Vec::new();
    for n in 3..=max_parties {
        // From three parties up, both families document every profile with
        // at most two deviators.
        let strategies = bounded_profile_count(n as usize, deal_deviating(), 2);
        for deal in multi_party_families(n) {
            let kind = if deal.family().starts_with("clique") { Kind::Clique } else { Kind::Cycle };
            let runs = (!deal.is_reduced()).then_some(strategies);
            families.push(Family { kind, gen: Box::new(deal), strategies, runs, violations: 0 });
        }
    }
    families.push(broker_family(broker_deviators));
    families.extend(two_party_families());
    families.push(auction_family());
    families.extend((1..=3).map(bootstrap_family));
    families.extend(random_graph_seeds(seed, graphs).into_iter().map(random_family));
    families
}

/// The sampled reorg family runs at finality margin `MAX_REORG_DEPTH`,
/// one block above the theorem's threshold of `MAX_REORG_DEPTH − 1`: at
/// the threshold about one sample in 40,000 breaks the hedged property (a
/// ¾Δ crash outage at step 0 plus delays, and a depth-2 reorg of chain 1 in
/// round 3), an open finding of the program's. Margin 2 held on 25 seeds ×
/// 40,000 samples.
fn reorg_config() -> TwoPartyConfig {
    TwoPartyConfig { finality_margin: u64::from(MAX_REORG_DEPTH), ..TwoPartyConfig::default() }
}

/// The seed every sampled family of a workload draws from.
pub fn sampled_seed(seed: u64) -> u64 {
    derive_seed(seed, 0x5341_4D50)
}

/// The randomized tier: `bench_report`'s sampled families at the workload
/// seed, the reorg family weighted up to about a third of the run, and a
/// sampled six-party clique deal.
pub fn sampled_families(seed: u64, scale: Scale) -> Vec<Family> {
    let s = sampled_seed(seed);
    let size = |full: usize| match scale {
        Scale::Full => full,
        Scale::Smoke => (full / 40).max(10),
    };
    let two_party = TwoPartyConfig::default;
    vec![
        sampled(Kind::TwoParty, size(40_000), |n| {
            SampledSweep::hedged_two_party(two_party(), s, n)
        }),
        sampled(Kind::Reorg, size(40_000), |n| {
            SampledSweep::hedged_two_party_reorgs(reorg_config(), s, n)
        }),
        sampled(Kind::TwoParty, size(40_000), |n| SampledSweep::base_two_party(two_party(), s, n)),
        sampled(Kind::Deal, size(15_000), |n| {
            SampledSweep::deal("figure3", figure3_config(), s, n)
        }),
        sampled(Kind::Cycle, size(8_000), |n| SampledSweep::deal("cycle-5", cycle_config(5), s, n)),
        sampled(Kind::Auction, size(25_000), |n| {
            SampledSweep::auction(AuctionConfig::default(), s, n)
        }),
        sampled(Kind::Bootstrap, size(25_000), |n| {
            SampledBootstrap::new(5_000, 20_000, 10, 3, s, n)
        }),
        sampled(Kind::Clique, size(600), |n| {
            SampledSweep::deal("clique-6", clique_config(6), s, n)
        }),
    ]
}

/// Small families of the given kinds, so a traced run can time every
/// `modelcheck.family_us` key even when its workload loads only some.
pub fn companion_families(seed: u64, kinds: &[Kind]) -> Vec<Family> {
    let s = sampled_seed(seed);
    let mut families = Vec::new();
    for &kind in kinds {
        match kind {
            Kind::TwoParty => families.extend(two_party_families()),
            Kind::Cycle => families.push(bounded_deal(kind, "cycle-3".into(), cycle_config(3), 1)),
            Kind::Clique => {
                families.push(bounded_deal(kind, "clique-3".into(), clique_config(3), 1))
            }
            Kind::Broker => families.push(broker_family(1)),
            Kind::Auction => families.push(auction_family()),
            Kind::Bootstrap => families.extend((1..=3).map(bootstrap_family)),
            Kind::Random => {
                families.extend(random_graph_seeds(seed, 1).into_iter().map(random_family))
            }
            Kind::Reorg => families.push(sampled(kind, 2_000, |n| {
                SampledSweep::hedged_two_party_reorgs(reorg_config(), s, n)
            })),
            Kind::Deal => families.push(sampled(kind, 1_000, |n| {
                SampledSweep::deal("figure3", figure3_config(), s, n)
            })),
        }
    }
    families
}

/// Borrows a family list the way `ParallelSweep::run_all` takes it.
pub fn gens(families: &[Family]) -> Vec<&dyn ScenarioGen> {
    families.iter().map(|f| f.gen.as_ref()).collect()
}

/// Checks every family's reported sizes against its closed forms.
pub fn closed_form_problems(families: &[Family]) -> Vec<String> {
    let mut problems = Vec::new();
    for family in families {
        let name = family.gen.family();
        if family.gen.strategies() != family.strategies {
            problems.push(format!(
                "{name}: documents {} profiles, closed form {}",
                family.gen.strategies(),
                family.strategies
            ));
        }
        match family.runs {
            Some(runs) if family.gen.total() != runs => problems
                .push(format!("{name}: executes {} runs, closed form {runs}", family.gen.total())),
            None if family.gen.total() > family.strategies => problems.push(format!(
                "{name}: executes {} runs for {} profiles",
                family.gen.total(),
                family.strategies
            )),
            _ => {}
        }
    }
    problems
}

/// Judges one `run_all` summary over `families`: the run and profile
/// totals must match, every hedged family must be violation-free, and the
/// base swap must report exactly its known violations. Returns the number
/// of failed profiles plus a description of each problem.
pub fn judge_summary(families: &[Family], summary: &CheckSummary) -> (u64, Vec<String>) {
    let mut problems = Vec::new();
    let runs: usize = families.iter().map(|f| f.gen.total()).sum();
    let strategies: usize = families.iter().map(|f| f.strategies).sum();
    if summary.runs != runs || summary.strategies != strategies {
        problems.push(format!(
            "summary has {} runs / {} profiles, expected {runs} / {strategies}",
            summary.runs, summary.strategies
        ));
    }
    // Families with known violations claim those whose scenario label
    // starts with their name; any other violation fails its profile.
    let mut controls: Vec<(String, usize, usize)> = families
        .iter()
        .filter(|f| f.violations > 0)
        .map(|f| (f.gen.family(), f.violations, 0))
        .collect();
    let mut unexpected = BTreeSet::new();
    for violation in &summary.violations {
        match controls.iter_mut().find(|(name, ..)| violation.scenario.starts_with(name.as_str())) {
            Some(control) if violation.property == "hedged" => control.2 += 1,
            _ => {
                if unexpected.insert(violation.scenario.clone()) && unexpected.len() == 1 {
                    problems.push(format!("unexpected violation: {violation:?}"));
                }
            }
        }
    }
    let mut failed = unexpected.len() as u64;
    for (name, expected, found) in controls {
        if found != expected {
            problems
                .push(format!("{name}: {found} hedged violations, expected exactly {expected}"));
            failed += found.abs_diff(expected) as u64;
        }
    }
    (failed, problems)
}

/// `BENCH_market.json`'s topology (8 shards × 120,000 accounts, 64 deals
/// per round, Δ = 2, gas price 3, 10% walk-aways) on one worker thread,
/// without reorgs.
fn market_topology(seed: u64, scale: Scale) -> MarketConfig {
    let accounts = if scale == Scale::Full { 120_000 } else { 2_000 };
    MarketConfig {
        seed: derive_seed(seed, 0x4D41_524B),
        shards: 8,
        accounts,
        deals: 2_000,
        deals_per_round: 64,
        delta_blocks: 2,
        workers: 1,
        gas_price: 3,
        endowment: 1_000_000_000,
        walkaway_percent: 10,
        ..MarketConfig::default()
    }
}

/// The `market_reorg` configuration: the committed `reorg_run` shape,
/// 2,000 deals with depth-1 finality and a redelivering reorg about every
/// 4 rounds per shard.
pub fn market_config(seed: u64, scale: Scale) -> MarketConfig {
    let deals = if scale == Scale::Full { 2_000 } else { 200 };
    MarketConfig { deals, reorg_interval: 4, reorg_depth: 1, ..market_topology(seed, scale) }
}

/// A small market without reorgs for traced runs of the model-checking
/// workloads, so every `market.*` key is timed on every workload:
/// `bench_market`'s smoke shape.
pub fn companion_market(seed: u64, scale: Scale) -> MarketConfig {
    let base = market_topology(seed, scale);
    match scale {
        Scale::Full => MarketConfig { accounts: 16_000, deals: 300, deals_per_round: 32, ..base },
        Scale::Smoke => MarketConfig { deals: 100, ..base },
    }
}

/// Judges one market report: every deal settled, no violation (which
/// covers conservation and failed calls), no failed redelivery, and — when
/// the config injects reorgs — at least one reorg. Returns failed deals and
/// problem descriptions.
pub fn judge_market(cfg: &MarketConfig, report: &MarketReport) -> (u64, Vec<String>) {
    let mut problems = Vec::new();
    let unsettled = u64::from(cfg.deals - report.settled.min(cfg.deals));
    if unsettled > 0 {
        problems.push(format!("{unsettled} of {} deals unsettled", cfg.deals));
    }
    if report.violations > 0 {
        problems.push(format!("{} violations: {:?}", report.violations, report.violation_details));
    }
    if report.reorg_redelivery_failures > 0 {
        problems.push(format!("{} redelivery failures", report.reorg_redelivery_failures));
    }
    if cfg.reorg_interval > 0 && report.reorgs == 0 {
        problems.push("the reorg injector never fired".into());
    }
    let failed = unsettled.max(u64::from(report.violations)) + report.reorg_redelivery_failures;
    (failed, problems)
}

/// A digest of the seed-drawn inputs of a model-checking workload, printed
/// so a second seed can be seen to change them: the random digraphs of
/// `sweep`, or the first sampled profiles of `sampled`. (The markets print
/// `MarketReport::digest()` instead.)
pub fn input_digest(workload: Workload, seed: u64, scale: Scale) -> String {
    let mut text = String::new();
    match workload {
        Workload::Sweep => {
            let graphs = if scale == Scale::Full { 8 } else { 2 };
            for graph_seed in random_graph_seeds(seed, graphs) {
                let _ = write!(text, "{:?};", random_config(5, 4, graph_seed).digraph);
            }
        }
        _ => {
            let s = sampled_seed(seed);
            let hedged = SampledSweep::hedged_two_party(TwoPartyConfig::default(), s, 64);
            let reorgs = SampledSweep::hedged_two_party_reorgs(reorg_config(), s, 64);
            for index in 0..64 {
                let _ = write!(
                    text,
                    "{:?};{:?};",
                    hedged.scenario_at(index),
                    reorgs.scenario_at(index)
                );
            }
        }
    }
    format!("{:016x}", fnv1a64(text.as_bytes()))
}

/// Median and range of per-repetition rates, for the notes.
fn describe(rates: &[f64], unit: &str) -> String {
    let low = rates.iter().copied().fold(f64::INFINITY, f64::min);
    let high = rates.iter().copied().fold(0.0, f64::max);
    format!("median {:.0} {unit} (range {low:.0}-{high:.0})", median(rates))
}

/// What one untraced run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Profiles or deals judged, summed over repetitions.
    pub attempted: u64,
    /// Operations whose verdict differed from the expected one.
    pub failed: u64,
    /// Gate failures, one line each.
    pub problems: Vec<String>,
    /// Verified operations per second, one sample per repetition.
    pub rates: Vec<f64>,
    /// Set-up seconds, one sample per set-up.
    pub setups: Vec<f64>,
    /// Informational lines (digests, repetition counts).
    pub notes: Vec<String>,
}

/// Repetitions a run makes even when `seconds` is already spent, so every
/// reported median has at least this many samples.
pub const MIN_REPS: usize = 3;

/// How long a model-checking run keeps rebuilding its families before
/// measuring (at least `MIN_REPS` builds; the last build is measured).
/// `setup_s` is the median build: a build takes 10–50 ms, so one build
/// alone would time the host's scheduling more than the construction.
pub const SETUP_SECONDS: f64 = 1.0;

/// Whether a loop that started at `start` and has made `reps` repetitions
/// makes another: always below `MIN_REPS`, otherwise only if one more
/// repetition of the average length so far ends within `seconds`, so runs
/// end near `seconds` instead of up to one long repetition past it.
fn keep_going(start: Instant, reps: usize, seconds: f64) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    reps < MIN_REPS || elapsed + elapsed / reps as f64 <= seconds
}

/// Runs a model-checking workload untraced for `seconds`.
pub fn measure_modelcheck(workload: Workload, seed: u64, seconds: f64, scale: Scale) -> Measured {
    let build = || match workload {
        Workload::Sweep => sweep_families(seed, scale),
        _ => sampled_families(seed, scale),
    };
    let mut m = Measured::default();
    let mut families = Vec::new();
    let setup_seconds = if scale == Scale::Full { SETUP_SECONDS } else { 0.01 };
    let start = Instant::now();
    while keep_going(start, m.setups.len(), setup_seconds) {
        drop(std::mem::take(&mut families));
        let build_start = Instant::now();
        families = build();
        m.setups.push(build_start.elapsed().as_secs_f64());
    }
    m.problems.extend(closed_form_problems(&families));
    m.notes.push(format!("inputs {}", input_digest(workload, seed, scale)));
    let refs = gens(&families);
    let profiles: usize = families.iter().map(|f| f.strategies).sum();
    let start = Instant::now();
    while keep_going(start, m.rates.len(), seconds) {
        let rep = Instant::now();
        let summary = ParallelSweep::new(1).run_all(&refs);
        let secs = rep.elapsed().as_secs_f64();
        let (failed, problems) = judge_summary(&families, &summary);
        m.attempted += profiles as u64;
        m.failed += failed;
        m.problems.extend(problems);
        m.rates.push(profiles as f64 / secs);
    }
    m.notes.push(format!(
        "{} families, {profiles} profiles per repetition, {} repetitions, {}",
        families.len(),
        m.rates.len(),
        describe(&m.rates, "profiles/s")
    ));
    m
}

/// Runs the market workload untraced for `seconds`.
pub fn measure_market(seed: u64, seconds: f64, scale: Scale) -> Measured {
    let cfg = market_config(seed, scale);
    let mut m = Measured::default();
    let mut digests = BTreeSet::new();
    let start = Instant::now();
    while keep_going(start, m.rates.len(), seconds) {
        let rep = Instant::now();
        let run = run_market(&cfg);
        let wall = rep.elapsed();
        let (failed, problems) = judge_market(&cfg, &run.report);
        m.attempted += u64::from(cfg.deals);
        m.failed += failed;
        m.problems.extend(problems);
        m.rates.push(f64::from(run.report.settled) / (wall - run.setup).as_secs_f64());
        m.setups.push(run.setup.as_secs_f64());
        digests.insert(run.report.digest());
    }
    if digests.len() != 1 {
        m.problems.push(format!("repetitions disagree on the report digest: {digests:?}"));
    }
    m.notes.push(format!("inputs {}", digests.iter().next().cloned().unwrap_or_default()));
    m.notes.push(format!(
        "{} deals per repetition, {} repetitions, {}",
        cfg.deals,
        m.rates.len(),
        describe(&m.rates, "deals/s")
    ));
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use chainsim::PartyId;
    use modelcheck::Violation;

    fn violation(scenario: String, property: &'static str) -> Violation {
        Violation { scenario, party: PartyId(0), property }
    }

    fn base(count: usize) -> Vec<Violation> {
        (0..count).map(|i| violation(format!("base two-party swap, #{i}"), "hedged")).collect()
    }

    #[test]
    fn the_gate_counts_profiles_whose_verdict_differs() {
        let families = two_party_families();
        let runs = 49 * 49 + 31 * 31;
        let summary = |violations| CheckSummary { runs, strategies: runs, violations };
        assert_eq!(judge_summary(&families, &summary(base(62))), (0, Vec::new()));
        assert_eq!(judge_summary(&families, &summary(base(61))).0, 1);
        let mut extra = base(62);
        extra.push(violation("hedged two-party swap, x".into(), "hedged"));
        extra.push(violation("hedged two-party swap, x".into(), "conservation"));
        let (failed, problems) = judge_summary(&families, &summary(extra));
        assert_eq!(failed, 1, "one profile, two violations");
        assert_eq!(problems.len(), 1);
        let short = CheckSummary { runs: 1, ..summary(base(62)) };
        assert_eq!(judge_summary(&families, &short).1.len(), 1);
    }

    #[test]
    fn every_family_meets_its_closed_forms() {
        assert_eq!(closed_form_problems(&sweep_families(1, Scale::Smoke)), Vec::<String>::new());
        assert_eq!(closed_form_problems(&sampled_families(1, Scale::Smoke)), Vec::<String>::new());
        assert_eq!(closed_form_problems(&companion_families(1, &Kind::ALL)), Vec::<String>::new());
    }

    #[test]
    fn random_graphs_are_distinct_members_of_the_pool() {
        for seed in 0..20 {
            let seeds = random_graph_seeds(seed, 8);
            assert_eq!(seeds.iter().collect::<BTreeSet<_>>().len(), 8);
            assert!(seeds.iter().all(|&s| s < RANDOM_GRAPH_POOL));
        }
        assert_ne!(random_graph_seeds(1, 8), random_graph_seeds(2, 8));
    }
}
