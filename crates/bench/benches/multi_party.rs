//! Experiment F3 — the Figure 3a three-party swap and its premium tables.

use std::collections::BTreeMap;

use chainsim::{PartyId, World};
use criterion::{criterion_group, criterion_main, Criterion};
use protocols::multi_party::{cycle_config, figure3_config};
use protocols::script::{profile, Protocol, Strategy};
use swapgraph::{premiums, Digraph};

fn report() {
    let g = Digraph::figure3();
    bench::header(
        "F3: Figure 3b hashkey paths and redemption premiums (p = 1)",
        &["arc", "path", "premium"],
    );
    for entry in premiums::redemption_premium_table(&g, 0, 1) {
        bench::row(&[
            format!("{:?}", entry.arc),
            format!("{:?}", entry.path),
            entry.amount.to_string(),
        ]);
    }
    bench::header("F3: Figure 3a escrow premiums (Eq. 2, p = 1)", &["arc", "E(u,v)"]);
    let leaders = std::collections::BTreeSet::from([0]);
    for (arc, premium) in premiums::escrow_premium_table(&g, &leaders, 1).unwrap() {
        bench::row(&[format!("{arc:?}"), premium.to_string()]);
    }

    bench::header(
        "F3: three-party swap outcomes",
        &["scenario", "completed", "all compliant hedged"],
    );
    let compliant = figure3_config().run(&|_| Strategy::compliant(), &mut World::new(1));
    bench::row(&[
        "compliant".into(),
        compliant.completed.to_string(),
        compliant.all_compliant_hedged().to_string(),
    ]);
    let strategies = BTreeMap::from([(PartyId(2), Strategy::stop_after(2))]);
    let carol_defects = figure3_config().run(&profile(&strategies), &mut World::new(1));
    bench::row(&[
        "carol defects".into(),
        carol_defects.completed.to_string(),
        carol_defects.all_compliant_hedged().to_string(),
    ]);
}

fn bench_multi_party(c: &mut Criterion) {
    report();
    let config = figure3_config();
    c.bench_function("figure3_swap_compliant", |b| {
        b.iter(|| config.run(&|_| Strategy::compliant(), &mut World::new(1)))
    });
    for n in [3u32, 5] {
        let config = cycle_config(n);
        c.bench_function(&format!("cycle_swap_n{n}"), |b| {
            b.iter(|| config.run(&|_| Strategy::compliant(), &mut World::new(1)))
        });
    }
}

criterion_group!(benches, bench_multi_party);
criterion_main!(benches);
