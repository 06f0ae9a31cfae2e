//! Experiment F1/C1 — Figure 1 and the §5.1/§5.2 deviation payoff matrix.

use chainsim::World;
use criterion::{criterion_group, criterion_main, Criterion};
use protocols::script::{Protocol, Strategy};
use protocols::two_party::{profile, TwoPartyConfig, TwoPartySwap};

fn report() {
    let config = TwoPartyConfig::default();
    bench::header(
        "F1/C1: two-party swap deviation matrix (premiums p_a = p_b = 2)",
        &[
            "protocol",
            "scenario",
            "alice premium",
            "bob premium",
            "alice lockup (blocks)",
            "hedged",
        ],
    );
    let scenarios: [(&str, Strategy, Strategy); 4] = [
        ("compliant", Strategy::compliant(), Strategy::compliant()),
        ("bob aborts before escrow", Strategy::compliant(), Strategy::stop_after(1)),
        ("bob absent", Strategy::compliant(), Strategy::stop_after(0)),
        ("alice aborts after escrow", Strategy::stop_after(2), Strategy::compliant()),
    ];
    let swaps =
        [("base", TwoPartySwap::base(config.clone())), ("hedged", TwoPartySwap::hedged(config))];
    for (name, alice, bob) in scenarios {
        for (proto, swap) in &swaps {
            let r = swap.run(&profile(alice, bob), &mut World::new(1));
            bench::row(&[
                (*proto).into(),
                name.into(),
                r.alice_premium_payoff.to_string(),
                r.bob_premium_payoff.to_string(),
                r.alice_lockup.principal_blocks.to_string(),
                (r.hedged_for_alice && r.hedged_for_bob).to_string(),
            ]);
        }
    }
}

fn bench_two_party(c: &mut Criterion) {
    report();
    let hedged = TwoPartySwap::hedged(TwoPartyConfig::default());
    let base = TwoPartySwap::base(TwoPartyConfig::default());
    let compliant = profile(Strategy::compliant(), Strategy::compliant());
    let bob_walks = profile(Strategy::compliant(), Strategy::stop_after(1));
    c.bench_function("hedged_two_party_compliant", |b| {
        b.iter(|| hedged.run(&compliant, &mut World::new(1)))
    });
    c.bench_function("base_two_party_compliant", |b| {
        b.iter(|| base.run(&compliant, &mut World::new(1)))
    });
    c.bench_function("hedged_two_party_bob_reneges", |b| {
        b.iter(|| hedged.run(&bob_walks, &mut World::new(1)))
    });
}

criterion_group!(benches, bench_two_party);
criterion_main!(benches);
