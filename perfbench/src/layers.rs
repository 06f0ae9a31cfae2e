//! The traced run: per-layer metrics from spans around the benchmark's own
//! calls into each layer's public functions.
//!
//! A traced run first runs its workload untraced (the reference the traced
//! run must reproduce), then opens a `trace` span holding three children:
//!
//! * `workload` — the workload again, driven through the layers' public
//!   functions: each model-checking family through `ParallelSweep::run`,
//!   then every scenario through a direct `ScenarioGen::check` loop; or the
//!   market phase by phase through the public shard API;
//! * `companion` — small inputs for the layers the workload does not load
//!   (a small market for the model-checking workloads, one small family
//!   per missing `modelcheck.family_us` key), each run untraced and then
//!   traced, so every per-layer metric is measured on every workload.
//!   Compare a layer metric across commits on the workloads that load it;
//! * `probes` — fixed-size probes of the script, protocol and chain layers.
//!
//! `trace.overhead` is traced ÷ untraced wall time of the workload's
//! instrumented part; `trace.coverage` is the share of the `workload` span
//! its layer spans account for.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::Instant;

use chainsim::{Amount, FinalityParams, PartyId, ReorgStats, TraceMode, World};
use marketsim::market::deals;
use marketsim::market::driver::MarketRun;
use marketsim::market::metering::{conservation_violations, meter_shard};
use marketsim::market::shard::Shard;
use marketsim::market::{run_market, MarketConfig};
use marketsim::PricePath;
use modelcheck::engine::{FamilyScratch, ParallelSweep, ScenarioGen};
use modelcheck::scenarios::DealSweep;
use modelcheck::CheckSummary;
use protocols::deal::{deal_static_setup, run_deal_shared};
use protocols::multi_party::clique_config;
use protocols::script::DeviationTree;
use protocols::two_party::{
    self, run_swap_shared, swap_max_rounds, swap_static_setup, SwapProtocol, TwoPartyConfig,
};

use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::workloads::{
    companion_families, companion_market, gens, judge_market, judge_summary, market_config,
    sampled_families, sweep_families, Family, Kind, Scale, Workload,
};
use crate::{Metric, Options, Outcome};

/// Every per-layer metric a traced run prints, with its unit, in order.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("modelcheck.family_us.two_party", "us"),
    ("modelcheck.family_us.cycle", "us"),
    ("modelcheck.family_us.clique", "us"),
    ("modelcheck.family_us.broker", "us"),
    ("modelcheck.family_us.auction", "us"),
    ("modelcheck.family_us.bootstrap", "us"),
    ("modelcheck.family_us.random", "us"),
    ("modelcheck.family_us.reorg", "us"),
    ("modelcheck.family_us.deal", "us"),
    ("modelcheck.check_us.p50", "us"),
    ("modelcheck.check_us.p99", "us"),
    ("modelcheck.engine_share", "ratio"),
    ("modelcheck.reduction_ratio", "ratio"),
    ("script.record_us.two_party", "us"),
    ("script.record_us.deal", "us"),
    ("script.resume_us.p50", "us"),
    ("script.resume_us.p99", "us"),
    ("script.round0_share", "ratio"),
    ("script.zero_tail_share", "ratio"),
    ("protocols.shared_us.two_party", "us"),
    ("protocols.shared_us.deal", "us"),
    ("chainsim.snapshot_us.deal", "us"),
    ("chainsim.restore_us.deal", "us"),
    ("chainsim.window_us.shard", "us"),
    ("chainsim.window_us.pair", "us"),
    ("market.generate_s", "s"),
    ("market.shard_build_s", "s"),
    ("market.rounds_s", "s"),
    ("market.shard_round_ms.p50", "ms"),
    ("market.shard_round_ms.p95", "ms"),
    ("market.ns_per_call", "ns"),
    ("market.barrier_s", "s"),
    ("market.inbox_p95", "count"),
    ("market.meter_s", "s"),
    ("market.teardown_s", "s"),
    ("market.untimed_s", "s"),
    ("market.calls", "count"),
    ("market.gas_per_deal", "gas"),
    ("market.calls_imbalance", "ratio"),
    ("market.latency_p99_rounds", "rounds"),
    ("market.reorgs", "count"),
    ("market.rewound_calls", "count"),
    ("trace.overhead", "ratio"),
    ("trace.coverage", "ratio"),
    ("box.compute_ms", "ms"),
    ("box.memory_ms", "ms"),
];

/// The box calibration metrics, filled in by the command after its closing
/// calibration; every other per-layer metric comes from [`run_traced`].
const BOX_METRICS: [&str; 2] = ["box.compute_ms", "box.memory_ms"];

type Values = BTreeMap<String, f64>;

/// What the traced model-checking layer produced.
struct ModelcheckLayer {
    /// µs per executed run, per family kind.
    family_us: BTreeMap<Kind, f64>,
    /// µs of each direct `check` call.
    check_us: Vec<f64>,
    /// Σ wall time of the traced `ParallelSweep::run` spans, in seconds.
    run_secs: f64,
}

/// Runs `families` untraced through one `run_all` and judges the summary.
/// An untimed sweep first pays the process's first-touch costs, which the
/// traced pass that follows would not pay again.
fn untraced_sweep(families: &[Family], problems: &mut Vec<String>) -> (CheckSummary, f64, u64) {
    ParallelSweep::new(1).run_all(&gens(families));
    let start = Instant::now();
    let summary = ParallelSweep::new(1).run_all(&gens(families));
    let secs = start.elapsed().as_secs_f64();
    let (failed, found) = judge_summary(families, &summary);
    problems.extend(found);
    (summary, secs, failed)
}

/// Times each family through `ParallelSweep::run`, then every scenario
/// through a direct `check` loop on one scratch world, and checks both
/// reproduce the untraced summary.
fn trace_modelcheck(
    t: &mut Tracer,
    families: &[Family],
    untraced: &CheckSummary,
    problems: &mut Vec<String>,
) -> ModelcheckLayer {
    let mut per_family = Vec::with_capacity(families.len());
    let mut by_kind: BTreeMap<Kind, (f64, usize)> = BTreeMap::new();
    let mut run_secs = 0.0;
    for family in families {
        let (summary, secs) =
            t.span(family.kind.run_span(), |_| ParallelSweep::new(1).run(family.gen.as_ref()));
        let entry = by_kind.entry(family.kind).or_default();
        entry.0 += secs;
        entry.1 += summary.runs;
        run_secs += secs;
        per_family.push(summary);
    }
    let merged = CheckSummary {
        runs: per_family.iter().map(|s| s.runs).sum(),
        strategies: per_family.iter().map(|s| s.strategies).sum(),
        violations: per_family.iter().flat_map(|s| s.violations.iter().cloned()).collect(),
    };
    if merged != *untraced {
        problems.push("per-family runs do not reproduce the untraced run_all summary".into());
    }

    let mut world = World::with_trace(1, TraceMode::Off);
    let mut check_us = Vec::with_capacity(untraced.runs);
    for (family, summary) in families.iter().zip(&per_family) {
        let mut slot = FamilyScratch::default();
        let (violations, _) = t.span(family.kind.check_span(), |_| {
            let mut violations = Vec::new();
            for index in 0..family.gen.total() {
                let start = Instant::now();
                violations.extend(family.gen.check(index, &mut world, &mut slot));
                check_us.push(start.elapsed().as_secs_f64() * 1e6);
            }
            violations
        });
        let direct = CheckSummary {
            runs: family.gen.total(),
            strategies: family.gen.strategies(),
            violations,
        };
        if direct != *summary {
            problems.push(format!(
                "{}: the direct check loop does not reproduce its CheckSummary",
                family.gen.family()
            ));
        }
    }
    let family_us = by_kind
        .into_iter()
        .map(|(kind, (secs, runs))| (kind, secs * 1e6 / runs.max(1) as f64))
        .collect();
    ModelcheckLayer { family_us, check_us, run_secs }
}

/// Records the model-checking metrics of a workload's own families,
/// filling `family_us` keys it lacks from `companion`.
fn modelcheck_values(
    values: &mut Values,
    main: &ModelcheckLayer,
    companion: &ModelcheckLayer,
    untraced: &CheckSummary,
    untraced_secs: f64,
) {
    for kind in Kind::ALL {
        let us = main.family_us.get(&kind).or_else(|| companion.family_us.get(&kind));
        values.insert(format!("modelcheck.family_us.{}", kind.key()), us.copied().unwrap_or(0.0));
    }
    let checked: f64 = main.check_us.iter().sum::<f64>() * 1e-6;
    values.insert("modelcheck.check_us.p50".into(), percentile(&main.check_us, 50.0));
    values.insert("modelcheck.check_us.p99".into(), percentile(&main.check_us, 99.0));
    values.insert("modelcheck.engine_share".into(), (untraced_secs - checked) / untraced_secs);
    values.insert(
        "modelcheck.reduction_ratio".into(),
        untraced.runs as f64 / untraced.strategies.max(1) as f64,
    );
}

/// Drives `cfg`'s market phase by phase through the public shard API —
/// the same calls `run_market` makes — and records the market metrics.
/// Returns the traced wall time of the phases `MarketRun::setup` and
/// `MarketRun::execute` cover.
fn trace_market(
    t: &mut Tracer,
    cfg: &MarketConfig,
    untraced: &MarketRun,
    untraced_wall: f64,
    values: &mut Values,
    problems: &mut Vec<String>,
) -> f64 {
    cfg.validate();
    let rounds = cfg.rounds();
    let (per_shard, generate_s) = t.span("market.generate", |_| {
        // `run_market`'s price path: one sample per round from the seed.
        let path = PricePath::gbm(100.0, 0.0, 0.6, 1.0 / 365.0, rounds as usize, cfg.seed);
        deals::split_by_home(deals::generate(cfg, &path), cfg.shards)
    });
    let (mut shards, build_s) = t.span("market.shard_build", |_| {
        let contract_estimate = 2 * cfg.deals as usize;
        let mut shards: Vec<Shard> =
            (0..cfg.shards).map(|id| Shard::new(id, cfg, contract_estimate)).collect();
        for (shard, deals) in shards.iter_mut().zip(per_shard) {
            shard.assign_deals(deals);
        }
        shards
    });
    let mut round_ms = Vec::with_capacity(rounds as usize * shards.len());
    let mut inbox = Vec::with_capacity(rounds as usize * shards.len());
    let mut barrier_s = 0.0;
    let ((), rounds_s) = t.span("market.rounds", |t| {
        for round in 0..rounds {
            for shard in shards.iter_mut() {
                let ((), secs) = t.span("market.shard_round", |_| shard.run_round(round));
                round_ms.push(secs * 1e3);
            }
            let (delivered, secs) = t.span("market.barrier", |_| {
                let mut delivered = vec![0u32; shards.len()];
                for source in 0..shards.len() {
                    for envelope in shards[source].take_outbox() {
                        delivered[envelope.target as usize] += 1;
                        shards[envelope.target as usize].push_inbox(envelope.msg);
                    }
                }
                delivered
            });
            barrier_s += secs;
            inbox.extend(delivered.into_iter().map(f64::from));
        }
    });
    let ((meterings, broken, reorg_stats), meter_s) = t.span("market.meter", |_| {
        let meterings: Vec<_> =
            shards.iter().map(|s| meter_shard(s, cfg.endowment, cfg.gas_price)).collect();
        let broken: usize = shards
            .iter()
            .zip(&meterings)
            .map(|(s, m)| conservation_violations(m, s.minted_per_asset()).len())
            .sum();
        let reorg_stats: Vec<ReorgStats> = shards.iter().map(Shard::reorg_stats).collect();
        (meterings, broken, reorg_stats)
    });
    let ((), teardown_s) = t.span("market.teardown", move |_| drop(shards));

    let report = &untraced.report;
    let calls: u64 = meterings.iter().map(|m| m.calls).sum();
    let sum = |f: fn(&ReorgStats) -> u64| reorg_stats.iter().map(f).sum::<u64>();
    let traced = [
        calls,
        meterings.iter().map(|m| m.gas).sum(),
        meterings.iter().map(|m| m.failed_calls).sum(),
        sum(|r| r.reorgs),
        sum(|r| r.rewound_calls),
        sum(|r| r.redelivered_calls),
        sum(|r| r.redelivery_failures),
    ];
    let expected = [
        report.calls,
        report.gas_total,
        report.failed_calls,
        report.reorgs,
        report.reorg_rewound_calls,
        report.reorg_redelivered_calls,
        report.reorg_redelivery_failures,
    ];
    if traced != expected {
        problems.push(format!(
            "the traced market does not reproduce the untraced report: \
             [calls, gas, failed, reorgs, rewound, redelivered, redelivery failures] \
             {traced:?} != {expected:?}"
        ));
    }
    if broken > 0 {
        problems.push(format!("the traced market broke conservation {broken} times"));
    }

    let shard_calls: Vec<f64> = meterings.iter().map(|m| m.calls as f64).collect();
    let mean_calls = shard_calls.iter().sum::<f64>() / shard_calls.len().max(1) as f64;
    let max_calls = shard_calls.iter().copied().fold(0.0, f64::max);
    let untimed = untraced_wall - untraced.setup.as_secs_f64() - untraced.execute.as_secs_f64();
    let round_secs = round_ms.iter().sum::<f64>() * 1e-3;
    for (name, value) in [
        ("market.generate_s", generate_s),
        ("market.shard_build_s", build_s),
        ("market.rounds_s", rounds_s),
        ("market.shard_round_ms.p50", percentile(&round_ms, 50.0)),
        ("market.shard_round_ms.p95", percentile(&round_ms, 95.0)),
        ("market.ns_per_call", round_secs * 1e9 / calls.max(1) as f64),
        ("market.barrier_s", barrier_s),
        ("market.inbox_p95", percentile(&inbox, 95.0)),
        ("market.meter_s", meter_s),
        ("market.teardown_s", teardown_s),
        ("market.untimed_s", untimed),
        ("market.calls", report.calls as f64),
        ("market.gas_per_deal", report.gas_per_deal as f64),
        ("market.calls_imbalance", if mean_calls > 0.0 { max_calls / mean_calls } else { 0.0 }),
        ("market.latency_p99_rounds", f64::from(report.latency_p99_rounds)),
        ("market.reorgs", report.reorgs as f64),
        ("market.rewound_calls", report.reorg_rewound_calls as f64),
    ] {
        values.insert(name.into(), value);
    }
    build_s + rounds_s
}

/// Runs `cfg` untraced, judged, after an untimed warm-up run; returns the
/// run and its wall time.
fn untraced_market(cfg: &MarketConfig, problems: &mut Vec<String>) -> (MarketRun, f64, u64) {
    run_market(cfg);
    let start = Instant::now();
    let run = run_market(cfg);
    let wall = start.elapsed().as_secs_f64();
    let (failed, found) = judge_market(cfg, &run.report);
    problems.extend(found);
    (run, wall, failed)
}

/// Repetitions of each µs-scale probe; medians are reported.
fn reps(scale: Scale, full: usize) -> usize {
    match scale {
        Scale::Full => full,
        Scale::Smoke => (full / 10).max(2),
    }
}

/// `World::advance_delta` per round at finality depth 1 minus depth 0, in
/// µs: the speculative window's cost per round on `world`.
fn window_us(world: &mut World, rounds: usize) -> f64 {
    let per_round = |world: &mut World| {
        let samples: Vec<f64> = (0..rounds)
            .map(|_| {
                let start = Instant::now();
                world.advance_delta();
                start.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        median(&samples)
    };
    let instant = per_round(world);
    let chains: Vec<_> = world.chains().map(|c| c.id()).collect();
    for chain in chains {
        world.set_finality(chain, FinalityParams { depth: 1, delta: 0 });
    }
    // The first depth-1 round fills the window.
    world.advance_delta();
    per_round(world) - instant
}

/// Fixed-size probes of the script, protocol and chain layers.
fn probes(t: &mut Tracer, scale: Scale, values: &mut Values) {
    let config = TwoPartyConfig::default();
    let protocols = [SwapProtocol::Hedged, SwapProtocol::Base];

    let (mut trees, _) = t.span("script.record.two_party", |_| {
        let mut samples = Vec::new();
        let mut trees = Vec::new();
        for protocol in protocols {
            for rep in 0..reps(scale, 30) {
                let (mut world, actors) = swap_static_setup(&config, protocol);
                let start = Instant::now();
                let tree = DeviationTree::record(&mut world, actors, swap_max_rounds(&config));
                samples.push(start.elapsed().as_secs_f64() * 1e6);
                if rep == 0 {
                    trees.push((protocol, world, tree));
                }
            }
        }
        values.insert("script.record_us.two_party".into(), median(&samples));
        trees
    });

    t.span("script.resume", |_| {
        let mut samples = Vec::new();
        let (mut round0, mut zero_tail) = (0usize, 0usize);
        for (protocol, world, tree) in &mut trees {
            let space = two_party::strategy_space_for(*protocol);
            for &alice in &space {
                for &bob in &space {
                    let start = Instant::now();
                    let resumed = tree.resume(world, &|party| {
                        if party == two_party::ALICE {
                            alice
                        } else {
                            bob
                        }
                    });
                    samples.push(start.elapsed().as_secs_f64() * 1e6);
                    round0 += usize::from(resumed.state_key == 0);
                    zero_tail += usize::from(resumed.zero_tail);
                }
            }
        }
        let count = samples.len().max(1) as f64;
        values.insert("script.resume_us.p50".into(), percentile(&samples, 50.0));
        values.insert("script.resume_us.p99".into(), percentile(&samples, 99.0));
        values.insert("script.round0_share".into(), round0 as f64 / count);
        values.insert("script.zero_tail_share".into(), zero_tail as f64 / count);
    });

    t.span("protocols.shared.two_party", |_| {
        let (mut secs, mut count) = (0.0, 0usize);
        for protocol in protocols {
            let space = two_party::strategy_space_for(protocol);
            let mut world = World::with_trace(1, TraceMode::Off);
            let mut cache = None;
            for &alice in &space {
                for &bob in &space {
                    let start = Instant::now();
                    black_box(run_swap_shared(
                        &mut world, &config, protocol, alice, bob, &mut cache,
                    ));
                    secs += start.elapsed().as_secs_f64();
                    count += 1;
                }
            }
        }
        values.insert("protocols.shared_us.two_party".into(), secs * 1e6 / count as f64);
    });

    // The deal probes share the clique-5 configuration: 20 arcs, where
    // contract and hashkey cost is highest.
    let deal_config = clique_config(if scale == Scale::Full { 5 } else { 3 });
    t.span("script.record.deal", |_| {
        let compliant = BTreeMap::new();
        let samples: Vec<f64> = (0..reps(scale, 10))
            .map(|_| {
                let mut world = World::with_trace(1, TraceMode::Off);
                let start = Instant::now();
                black_box(run_deal_shared(&mut world, &deal_config, &compliant, &mut None));
                start.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        values.insert("script.record_us.deal".into(), median(&samples));
    });

    t.span("protocols.shared.deal", |_| {
        let sweep = DealSweep::at_most("clique", deal_config.clone(), 1);
        let mut world = World::with_trace(1, TraceMode::Off);
        let mut cache = None;
        let start = Instant::now();
        for index in 0..sweep.total() {
            black_box(run_deal_shared(&mut world, &deal_config, &sweep.profile(index), &mut cache));
        }
        let us = start.elapsed().as_secs_f64() * 1e6 / sweep.total() as f64;
        values.insert("protocols.shared_us.deal".into(), us);
    });

    t.span("chainsim.snapshot_restore", |_| {
        let (mut world, _) = deal_static_setup(&deal_config);
        let mut snapshot = world.snapshot();
        let taken: Vec<f64> = (0..reps(scale, 200))
            .map(|_| {
                let start = Instant::now();
                snapshot = black_box(world.snapshot());
                start.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        let restored: Vec<f64> = (0..reps(scale, 200))
            .map(|_| {
                let start = Instant::now();
                world.restore(&snapshot);
                start.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        values.insert("chainsim.snapshot_us.deal".into(), median(&taken));
        values.insert("chainsim.restore_us.deal".into(), median(&restored));
    });

    t.span("chainsim.window.shard", |_| {
        let accounts: u32 = if scale == Scale::Full { 120_000 } else { 2_000 };
        let mut world = World::with_trace(2, TraceMode::Off);
        let chain = world.add_chain("probe-shard");
        let token = world.register_asset("probe-token");
        let native = world.chain(chain).native_asset();
        let ledger_chain = world.chain_mut(chain);
        ledger_chain.ledger_mut().reserve(accounts as usize, 0, 2);
        for party in 0..accounts {
            ledger_chain.mint(PartyId(party), token, Amount::new(1_000));
            ledger_chain.mint(PartyId(party), native, Amount::new(1_000));
        }
        values.insert("chainsim.window_us.shard".into(), window_us(&mut world, reps(scale, 20)));
    });

    t.span("chainsim.window.pair", |_| {
        let (mut world, _) = swap_static_setup(&config, SwapProtocol::Hedged);
        values.insert("chainsim.window_us.pair".into(), window_us(&mut world, reps(scale, 2_000)));
    });
}

/// The traced run of `opts.workload`: every per-layer metric except the
/// box calibration, which the command adds around it.
pub fn run_traced(opts: &Options) -> Outcome {
    let Options { workload, seed, scale, .. } = *opts;
    let mut problems = Vec::new();
    let mut values = Values::new();
    let mut tracer = Tracer::default();
    let (attempted, mut failed, overhead);

    // Each companion's untraced reference runs inside the `companion` span,
    // so the workload's traced pass directly follows its own reference.
    if workload.is_market() {
        let cfg = market_config(seed, scale);
        let (run, wall, market_failed) = untraced_market(&cfg, &mut problems);
        let companion = companion_families(seed, &Kind::ALL);
        let ((traced, (summary, secs, companion_failed, layer)), _) = tracer.span("trace", |t| {
            let (traced, _) = t.span("workload", |t| {
                trace_market(t, &cfg, &run, wall, &mut values, &mut problems)
            });
            let (sweep, _) = t.span("companion", |t| {
                let (summary, secs, failed) = untraced_sweep(&companion, &mut problems);
                let layer = trace_modelcheck(t, &companion, &summary, &mut problems);
                (summary, secs, failed, layer)
            });
            t.span("probes", |t| probes(t, scale, &mut values));
            (traced, sweep)
        });
        modelcheck_values(&mut values, &layer, &layer, &summary, secs);
        attempted = u64::from(cfg.deals);
        failed = market_failed + companion_failed;
        overhead = traced / (run.setup + run.execute).as_secs_f64();
    } else {
        let families = match workload {
            Workload::Sweep => sweep_families(seed, scale),
            _ => sampled_families(seed, scale),
        };
        let (summary, secs, main_failed) = untraced_sweep(&families, &mut problems);
        let present: BTreeSet<Kind> = families.iter().map(|f| f.kind).collect();
        let missing: Vec<Kind> = Kind::ALL.into_iter().filter(|k| !present.contains(k)).collect();
        let companion = companion_families(seed, &missing);
        let market = companion_market(seed, scale);
        let ((main, (companion_failed, extra)), _) = tracer.span("trace", |t| {
            let (main, _) =
                t.span("workload", |t| trace_modelcheck(t, &families, &summary, &mut problems));
            let (extra, _) = t.span("companion", |t| {
                let (run, wall, market_failed) = untraced_market(&market, &mut problems);
                trace_market(t, &market, &run, wall, &mut values, &mut problems);
                let (reference, _, sweep_failed) = untraced_sweep(&companion, &mut problems);
                let layer = trace_modelcheck(t, &companion, &reference, &mut problems);
                (market_failed + sweep_failed, layer)
            });
            t.span("probes", |t| probes(t, scale, &mut values));
            (main, extra)
        });
        modelcheck_values(&mut values, &main, &extra, &summary, secs);
        attempted = summary.strategies as u64;
        failed = main_failed + companion_failed;
        overhead = main.run_secs / secs;
    }
    values.insert("trace.overhead".into(), overhead);
    values.insert("trace.coverage".into(), tracer.coverage("workload"));

    let mut notes = vec![format!(
        "traced {} spans; overhead {overhead:.3}, coverage {:.3}",
        tracer.spans().len(),
        values["trace.coverage"]
    )];
    match write_spans(workload, seed, &tracer) {
        Ok(path) => notes.push(format!("spans written to {path}")),
        Err(message) => problems.push(message),
    }
    let mut metrics = Vec::new();
    for (name, unit) in PER_LAYER.into_iter().filter(|(name, _)| !BOX_METRICS.contains(name)) {
        match values.get(name) {
            Some(&value) => metrics.push(Metric { name: name.into(), unit, value }),
            None => problems.push(format!("per-layer metric {name} was not measured")),
        }
    }
    if !problems.is_empty() {
        failed = failed.max(1);
    }
    let correct = problems.is_empty();
    notes.extend(problems.iter().map(|p| format!("FAILED {p}")));
    Outcome {
        correct,
        attempted,
        failed,
        metrics: if correct { metrics } else { Vec::new() },
        notes,
    }
}

/// Appends the box calibration metrics: the mean of the readings taken
/// before and after the traced run.
pub fn add_box_metrics(outcome: &mut Outcome, before: (f64, f64), after: (f64, f64)) {
    for (name, value) in
        BOX_METRICS.into_iter().zip([(before.0 + after.0) / 2.0, (before.1 + after.1) / 2.0])
    {
        outcome.metrics.push(Metric { name: name.into(), unit: "ms", value });
    }
}

/// Writes the spans next to the benchmark's sources, one JSON object per
/// line, and returns the path.
fn write_spans(workload: Workload, seed: u64, tracer: &Tracer) -> Result<String, String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}-{seed}.jsonl", workload.name()));
    std::fs::write(&path, tracer.to_jsonl())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path.display().to_string())
}
