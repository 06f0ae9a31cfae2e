//! The brokered ticket sale of §8 (Figure 4): Alice brokers Bob's ticket to
//! Carol, keeping the 1-coin spread; deviations forfeit premiums.

use std::collections::BTreeMap;

use sore_loser_hedging::chainsim::World;
use sore_loser_hedging::protocols::broker::{broker_deal_config, BrokerConfig, BROKER, SELLER};
use sore_loser_hedging::protocols::script::{profile, Protocol, Strategy};

fn main() {
    let config = BrokerConfig::default();

    println!("== Compliant brokered sale ==");
    let report = broker_deal_config(&config).run(&|_| Strategy::compliant(), &mut World::new(1));
    println!(
        "completed: {} | everyone hedged: {}",
        report.completed,
        report.all_compliant_hedged()
    );

    println!("\n== The broker walks away before trading ==");
    let strategies = BTreeMap::from([(BROKER, Strategy::stop_after(2))]);
    let report = broker_deal_config(&config).run(&profile(&strategies), &mut World::new(1));
    for (party, outcome) in &report.parties {
        println!(
            "  {party}: premium payoff {:+}, hedged {}",
            outcome.premium_payoff, outcome.hedged
        );
    }

    println!("\n== The seller walks away after premiums ==");
    let strategies = BTreeMap::from([(SELLER, Strategy::stop_after(2))]);
    let report = broker_deal_config(&config).run(&profile(&strategies), &mut World::new(1));
    for (party, outcome) in &report.parties {
        println!(
            "  {party}: premium payoff {:+}, hedged {}",
            outcome.premium_payoff, outcome.hedged
        );
    }
}
