//! The three-party swap of Figure 3a, compliant and with Carol defecting.

use std::collections::BTreeMap;

use sore_loser_hedging::chainsim::{PartyId, World};
use sore_loser_hedging::protocols::multi_party::figure3_config;
use sore_loser_hedging::protocols::script::{profile, Protocol, Strategy};
use sore_loser_hedging::swapgraph::{premiums, Digraph};

fn main() {
    let g = Digraph::figure3();
    println!("Figure 3a premium structure (p = 1):");
    println!("  leader premium R(A) = {}", premiums::leader_redemption_premium(&g, 0, 1));
    for entry in premiums::redemption_premium_table(&g, 0, 1) {
        println!("  arc {:?} path {:?}: {}p", entry.arc, entry.path, entry.amount);
    }

    println!("\n== Compliant three-party swap ==");
    let report = figure3_config().run(&|_| Strategy::compliant(), &mut World::new(1));
    println!(
        "completed: {} | everyone hedged: {}",
        report.completed,
        report.all_compliant_hedged()
    );

    println!("\n== Carol never escrows her asset ==");
    let strategies = BTreeMap::from([(PartyId(2), Strategy::stop_after(2))]);
    let report = figure3_config().run(&profile(&strategies), &mut World::new(1));
    println!("completed: {}", report.completed);
    for (party, outcome) in &report.parties {
        println!(
            "  {party}: premium payoff {:+}, escrowed-but-unredeemed {}, hedged {}",
            outcome.premium_payoff, outcome.escrowed_unredeemed, outcome.hedged
        );
    }
}
