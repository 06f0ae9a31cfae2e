//! Static protocol analyzer for the hedged cross-chain protocols.
//!
//! PR 9's raw-call fuzz harness caught two genuine arc-escrow stranding
//! bugs — premiums deposited with *no disposition rule* — but only
//! dynamically, after millions of executed calls. The paper's guarantees
//! (§7 staggered deadline schedules, Eq (1) premium sizing, sore-loser
//! compensation) are structural properties of the contract state machines
//! and script schedules, so this crate proves the whole class of "funds
//! with no exit path" and "infeasible deadline schedule" bugs **without
//! executing a single round**, complementing the enumerated/sampled/fuzz
//! dynamic tiers:
//!
//! * [`disposition`] — consumes the [`chainsim::StateSpec`] every
//!   production contract family declares and proves every depositable fund
//!   in every reachable state has at least one feasible disposition edge
//!   (codes `SC001`–`SC004`);
//! * [`schedule`] — checks the §7 path-length-staggered arc-deadline
//!   ladders against the swap digraph, the §5.2 two-party ladder, the §9
//!   auction ladder, the §6 bootstrap horizon, finality margins and the
//!   per-script deadline annotations (codes `SC101`–`SC105`,
//!   `SC201`–`SC202`);
//! * [`determinism`] — a self-contained source scanner that denies
//!   nondeterminism sources (wall clocks, unordered hash collections,
//!   ambient RNG, shared mutable state) in the semantic crates, codifying
//!   the byte-identity invariant every tier relies on (codes
//!   `SC301`–`SC304`).
//!
//! Findings are structured ([`Finding`]), deterministically ordered and
//! rendered with stable codes; [`analyze_default_suite`] runs all three
//! passes over every tier-1 configuration and the `staticcheck` binary
//! gates CI on an empty finding list.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

use std::fmt;
use std::path::Path;

pub mod determinism;
pub mod disposition;
pub mod schedule;

use chainsim::FinalityParams;
use protocols::auction::AuctionConfig;
use protocols::bootstrap::BootstrapConfig;
use protocols::broker::{broker_deal_config, BrokerConfig};
use protocols::deal::DealConfig;
use protocols::multi_party::{clique_config, cycle_config, figure3_config, random_config};
use protocols::script::Protocol;
use protocols::two_party::{min_finality_margin, SwapProtocol, TwoPartyConfig};

/// One structured analyzer finding.
///
/// Findings order and render deterministically: the suite sorts them by
/// `(code, subject, message)` and every field is derived from static
/// configuration only, so two runs over the same tree are byte-identical.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Stable finding code (`SC001`, …). Codes are append-only: a code is
    /// never reused for a different defect class.
    pub code: &'static str,
    /// What the finding is about: `Contract::machine` for disposition
    /// findings, a schedule/config label for schedule findings, a
    /// `path:line` for determinism findings.
    pub subject: String,
    /// Human-readable description of the defect.
    pub message: String,
}

impl Finding {
    /// Creates a finding.
    pub fn new(code: &'static str, subject: impl Into<String>, message: impl Into<String>) -> Self {
        Finding { code, subject: subject.into(), message: message.into() }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}: {}", self.code, self.subject, self.message)
    }
}

/// Stable finding codes, one module-level constant per defect class.
pub mod codes {
    /// A depositable fund is reachable in a state with no feasible
    /// disposition path: it can be stranded in the contract forever.
    pub const STRANDED_FUND: &str = "SC001";
    /// A declared state is unreachable from the initial state.
    pub const UNREACHABLE_STATE: &str = "SC002";
    /// A transition's window is unsatisfiable, or closes before the state
    /// machine can first reach its source state.
    pub const DEAD_WINDOW: &str = "SC003";
    /// A spec is structurally malformed (undeclared fund, missing initial).
    pub const MALFORMED_SPEC: &str = "SC004";
    /// The §7 arc-deadline ladder violates the staggered schedule.
    pub const ARC_SCHEDULE: &str = "SC101";
    /// The §5.2 two-party ladder or base timelocks violate the Δ-window
    /// schedule.
    pub const HEDGED_SCHEDULE: &str = "SC102";
    /// A configured finality margin is smaller than `(depth − 1) + (Δ − 1)`.
    pub const FINALITY_MARGIN: &str = "SC103";
    /// The §9 auction ladder violates its Δ-window schedule.
    pub const AUCTION_SCHEDULE: &str = "SC104";
    /// The §6 bootstrap horizon cannot fit every cascade level.
    pub const BOOTSTRAP_SCHEDULE: &str = "SC105";
    /// A script's annotated step deadlines are not strictly increasing.
    pub const SCRIPT_ORDER: &str = "SC201";
    /// A script's annotated step deadline leaves no window to act.
    pub const SCRIPT_WINDOW: &str = "SC202";
    /// A semantic crate reads a wall clock (`SystemTime`, `Instant`).
    pub const WALL_CLOCK: &str = "SC301";
    /// A semantic crate uses an unordered hash collection.
    pub const UNORDERED_COLLECTION: &str = "SC302";
    /// A semantic crate uses ambient (unseeded) randomness.
    pub const AMBIENT_RNG: &str = "SC303";
    /// A semantic crate uses a lock or an atomic (`Mutex`, `RwLock`,
    /// `Atomic*`), the shared mutable state a process-global memo or
    /// counter needs.
    pub const SHARED_STATE: &str = "SC304";
}

/// The aggregate result of [`analyze_default_suite`].
#[derive(Clone, Debug)]
pub struct SuiteReport {
    /// Contract instances whose [`chainsim::StateSpec`] was analyzed.
    pub contracts_analyzed: usize,
    /// Custody machines analyzed across those contracts.
    pub machines_analyzed: usize,
    /// Deadline schedules checked (arc ladders, two-party ladders, auction,
    /// bootstrap, finality pairings).
    pub schedules_checked: usize,
    /// Party scripts whose deadline annotations were checked.
    pub scripts_analyzed: usize,
    /// Source files scanned by the determinism pass.
    pub files_scanned: usize,
    /// Explicitly waived determinism occurrences (each carries a
    /// justification comment at the use site).
    pub waivers: usize,
    /// Findings from the disposition-completeness pass.
    pub disposition_findings: usize,
    /// Findings from the deadline-schedule pass.
    pub schedule_findings: usize,
    /// Findings from the determinism lint pass.
    pub determinism_findings: usize,
    /// All findings, sorted by `(code, subject, message)`.
    pub findings: Vec<Finding>,
}

impl SuiteReport {
    /// The number of passes the suite runs.
    pub const PASSES: usize = 3;

    /// Renders the report exactly as the `staticcheck` binary prints it.
    /// Deterministic: byte-identical across runs on the same tree.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("staticcheck: {} passes\n", Self::PASSES));
        out.push_str(&format!(
            "  disposition: {} contracts, {} machines, {} findings\n",
            self.contracts_analyzed, self.machines_analyzed, self.disposition_findings
        ));
        out.push_str(&format!(
            "  schedule:    {} schedules, {} scripts, {} findings\n",
            self.schedules_checked, self.scripts_analyzed, self.schedule_findings
        ));
        out.push_str(&format!(
            "  determinism: {} files, {} waivers, {} findings\n",
            self.files_scanned, self.waivers, self.determinism_findings
        ));
        for finding in &self.findings {
            out.push_str(&format!("{finding}\n"));
        }
        out.push_str(if self.findings.is_empty() { "result: PASS\n" } else { "result: FAIL\n" });
        out
    }
}

/// The tier-1 deal configurations the suite analyzes: figure 3, cycles and
/// cliques up to n = 6, a seeded random strongly-connected digraph, and the
/// §8 broker deal.
pub fn tier1_deal_configs() -> Vec<(String, DealConfig)> {
    let mut configs = vec![("figure3".to_string(), figure3_config())];
    for n in 3..=6 {
        configs.push((format!("cycle{n}"), cycle_config(n)));
        configs.push((format!("clique{n}"), clique_config(n)));
    }
    configs.push(("random5".to_string(), random_config(5, 3, 7)));
    configs.push(("broker".to_string(), broker_deal_config(&BrokerConfig::default())));
    configs
}

/// The tier-1 two-party configurations: the default and the
/// finality-margin pairing of the reorg tier.
pub fn tier1_two_party_configs() -> Vec<(String, TwoPartyConfig)> {
    vec![
        ("default".to_string(), TwoPartyConfig::default()),
        (
            "finality-margin".to_string(),
            TwoPartyConfig {
                finality_margin: min_finality_margin(2, TwoPartyConfig::default().delta_blocks),
                ..TwoPartyConfig::default()
            },
        ),
    ]
}

/// The finality pairings tier-1 exercises, as `(label, finality, Δ,
/// margin)`: instant finality with no margin, and the reorg tier's depth-2
/// lag at the default Δ = 2 absorbed by [`min_finality_margin`].
pub fn tier1_finality_pairings() -> Vec<(String, FinalityParams, u64, u64)> {
    let delta = TwoPartyConfig::default().delta_blocks;
    vec![
        ("instant".to_string(), FinalityParams::INSTANT, delta, 0),
        (
            "depth2".to_string(),
            FinalityParams { depth: 2, delta: 0 },
            delta,
            min_finality_margin(2, delta),
        ),
    ]
}

/// Per-world analysis: the published contracts' specs (pass 1) and the
/// scripts' deadline annotations (the per-script part of pass 2).
#[derive(Debug, Default)]
struct WorldAnalysis {
    contracts: usize,
    machines: usize,
    scripts: usize,
    spec_findings: Vec<Finding>,
    script_findings: Vec<Finding>,
}

fn analyze_world(
    label: &str,
    world: &chainsim::World,
    actors: &[protocols::script::ScriptedParty],
    expect_monotone: bool,
) -> WorldAnalysis {
    let mut out = WorldAnalysis::default();
    for chain in world.chains() {
        for contract in chain.contracts() {
            if let Some(spec) = contract.state_spec() {
                out.contracts += 1;
                out.machines += spec.machines.len();
                out.spec_findings.extend(disposition::check_spec(&spec));
            }
        }
    }
    for party in actors {
        out.scripts += 1;
        out.script_findings.extend(schedule::check_script_deadlines(label, party, expect_monotone));
    }
    out
}

/// Runs all three passes over every tier-1 configuration, scanning the
/// repository rooted at `repo_root` for the determinism pass.
pub fn analyze_suite(repo_root: &Path) -> SuiteReport {
    let mut contracts_analyzed = 0;
    let mut machines_analyzed = 0;
    let mut schedules_checked = 0;
    let mut scripts_analyzed = 0;
    let mut disposition_findings = Vec::new();
    let mut schedule_findings = Vec::new();
    let mut merge = |analysis: WorldAnalysis| {
        contracts_analyzed += analysis.contracts;
        machines_analyzed += analysis.machines;
        scripts_analyzed += analysis.scripts;
        disposition_findings.extend(analysis.spec_findings);
        schedule_findings.extend(analysis.script_findings);
    };

    // Passes 1 and 2: build every tier-1 world statically (contracts
    // published, zero rounds executed), then analyze the published specs,
    // the family-level deadline ladders and the per-script annotations.
    let mut family_findings = Vec::new();
    for (label, config) in tier1_two_party_configs() {
        for (protocol, tag) in [(SwapProtocol::Hedged, "hedged"), (SwapProtocol::Base, "base")] {
            let (world, actors) = protocols::two_party::swap_static_setup(&config, protocol);
            // The base §5.1 swap's cross-chain cutoffs are genuinely
            // non-monotone (see `schedule::check_script_deadlines`).
            let monotone = protocol == SwapProtocol::Hedged;
            merge(analyze_world(&format!("two-party/{label}/{tag}"), &world, &actors, monotone));
        }
        schedules_checked += 1;
        family_findings.extend(schedule::check_two_party(&label, &config));
    }
    for (label, config) in tier1_deal_configs() {
        let (world, actors) = protocols::deal::deal_static_setup(&config);
        merge(analyze_world(&format!("deal/{label}"), &world, &actors, true));
        schedules_checked += 1;
        family_findings.extend(schedule::check_deal(&label, &config));
    }
    {
        let config = AuctionConfig::default();
        let (world, actors) = config.static_setup();
        merge(analyze_world("auction/default", &world, &actors, true));
        schedules_checked += 1;
        let (bid, challenge) = config.deadlines();
        family_findings.extend(schedule::check_auction(
            "default",
            bid,
            challenge,
            config.delta_blocks,
        ));
    }
    for rounds in [1u32, 5, 10] {
        let config = BootstrapConfig::new(5_000, 20_000, 10, rounds);
        let (world, actors) = config.static_setup();
        merge(analyze_world(&format!("bootstrap/r{rounds}"), &world, &actors, true));
        schedules_checked += 1;
        family_findings.extend(schedule::check_bootstrap(
            &format!("r{rounds}"),
            rounds,
            config.delta_blocks(),
            config.horizon(),
        ));
    }
    for (label, finality, delta, margin) in tier1_finality_pairings() {
        schedules_checked += 1;
        family_findings.extend(schedule::check_finality(&label, &finality, delta, margin));
    }
    schedule_findings.extend(family_findings);

    // Pass 3: the determinism source scan.
    let determinism = determinism::scan_semantic_crates(repo_root);

    let disposition_count = disposition_findings.len();
    let schedule_count = schedule_findings.len();
    let determinism_count = determinism.findings.len();
    let mut findings = disposition_findings;
    findings.extend(schedule_findings);
    findings.extend(determinism.findings);
    findings.sort();
    findings.dedup();

    SuiteReport {
        contracts_analyzed,
        machines_analyzed,
        schedules_checked,
        scripts_analyzed,
        files_scanned: determinism.files_scanned,
        waivers: determinism.waivers,
        disposition_findings: disposition_count,
        schedule_findings: schedule_count,
        determinism_findings: determinism_count,
        findings,
    }
}

/// [`analyze_suite`] rooted at this repository (resolved from the crate's
/// own manifest directory), which is what the `staticcheck` binary and the
/// bench report run.
pub fn analyze_default_suite() -> SuiteReport {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("staticcheck lives two levels below the repository root");
    analyze_suite(root)
}
