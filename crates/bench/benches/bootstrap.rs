//! Experiments F2/C2 — Figure 2 and the §6 bootstrapping-round claims.

use chainsim::World;
use criterion::{criterion_group, criterion_main, Criterion};
use protocols::bootstrap::{BootstrapConfig, BootstrapDeviation};
use protocols::script::Protocol;
use swapgraph::bootstrap::{bootstrap_plan, lockup_durations, rounds_needed};

fn report() {
    bench::header(
        "C2: rounds needed to hedge a swap (1% premiums, $4 initial risk)",
        &["total value", "rounds"],
    );
    for value in [1_000u128, 10_000, 100_000, 1_000_000, 10_000_000] {
        bench::row(&[value.to_string(), rounds_needed(value, 4, 100).to_string()]);
    }

    bench::header(
        "F2: bootstrap deposit plan for a $1,000,000 swap (P = 100, 3 rounds)",
        &["level", "alice deposit", "bob deposit"],
    );
    let plan = bootstrap_plan(500_000, 500_000, 100, 3);
    for level in &plan.levels {
        bench::row(&[
            level.level.to_string(),
            level.alice_deposit.to_string(),
            level.bob_deposit.to_string(),
        ]);
    }

    bench::header(
        "C2: lock-up risk duration is independent of rounds",
        &["rounds", "risk duration (steps)", "total protocol (steps)"],
    );
    for rounds in 0..=5u32 {
        let (risk, total) = lockup_durations(6, rounds);
        bench::row(&[rounds.to_string(), risk.to_string(), total.to_string()]);
    }
}

fn bench_bootstrap(c: &mut Criterion) {
    report();
    let cascade = BootstrapConfig::new(500_000, 500_000, 100, 3);
    let compliant = BootstrapDeviation::None.profile(cascade.rounds);
    c.bench_function("bootstrap_cascade_3_rounds_compliant", |b| {
        b.iter(|| cascade.run(&compliant, &mut World::new(1)))
    });
    c.bench_function("bootstrap_plan_million", |b| {
        b.iter(|| bootstrap_plan(500_000, 500_000, 100, 3))
    });
}

criterion_group!(benches, bench_bootstrap);
criterion_main!(benches);
