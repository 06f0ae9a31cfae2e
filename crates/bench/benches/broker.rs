//! Experiment F4 — the Figure 4 brokered sale and its premium structure.

use std::collections::BTreeMap;

use chainsim::World;
use criterion::{criterion_group, criterion_main, Criterion};
use protocols::broker::{broker_deal_config, BrokerConfig, BROKER, BUYER, SELLER};
use protocols::script::{profile, Protocol, Strategy};

fn report() {
    let config = BrokerConfig::default();
    let deal = broker_deal_config(&config);
    bench::header(
        "F4: broker deal arcs and premiums (p = 1)",
        &["arc", "asset", "amount", "escrow/trading premium"],
    );
    for arc in &deal.arcs {
        bench::row(&[
            format!("({}, {})", arc.from, arc.to),
            arc.asset_name.clone(),
            arc.amount.to_string(),
            arc.escrow_premium.to_string(),
        ]);
    }
    bench::header("F4: broker deal outcomes", &["scenario", "completed", "all compliant hedged"]);
    for (name, strategies) in [
        ("compliant", BTreeMap::new()),
        ("seller defects", BTreeMap::from([(SELLER, Strategy::stop_after(2))])),
        ("buyer defects", BTreeMap::from([(BUYER, Strategy::stop_after(2))])),
        ("broker defects", BTreeMap::from([(BROKER, Strategy::stop_after(2))])),
    ] {
        let r = broker_deal_config(&config).run(&profile(&strategies), &mut World::new(1));
        bench::row(&[name.into(), r.completed.to_string(), r.all_compliant_hedged().to_string()]);
    }
}

fn bench_broker(c: &mut Criterion) {
    report();
    let config = BrokerConfig::default();
    c.bench_function("brokered_sale_compliant", |b| {
        b.iter(|| broker_deal_config(&config).run(&|_| Strategy::compliant(), &mut World::new(1)))
    });
}

criterion_group!(benches, bench_broker);
criterion_main!(benches);
