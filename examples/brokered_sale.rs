//! The brokered ticket sale of §8 (Figure 4): Alice brokers Bob's ticket to
//! Carol, keeping the 1-coin spread; deviations forfeit premiums.

use std::collections::BTreeMap;

use sore_loser_hedging::chainsim::World;
use sore_loser_hedging::protocols::broker::{
    broker_deal_config, BrokerConfig, BROKER, BUYER, SELLER,
};
use sore_loser_hedging::protocols::script::{profile, Protocol, Strategy};

fn main() {
    let config = BrokerConfig::default();

    println!("== Figure 4 arcs and escrow/trading premiums (p = 1) ==");
    for arc in &broker_deal_config(&config).arcs {
        println!(
            "  ({}, {}): {} {}, premium {}",
            arc.from, arc.to, arc.amount, arc.asset_name, arc.escrow_premium
        );
    }

    println!("\n== Compliant brokered sale ==");
    let report = broker_deal_config(&config).run(&|_| Strategy::compliant(), &mut World::new(1));
    println!(
        "completed: {} | everyone hedged: {}",
        report.completed,
        report.all_compliant_hedged()
    );

    for (title, defector) in [
        ("The broker walks away before trading", BROKER),
        ("The seller walks away after premiums", SELLER),
        ("The buyer walks away after premiums", BUYER),
    ] {
        println!("\n== {title} ==");
        let strategies = BTreeMap::from([(defector, Strategy::stop_after(2))]);
        let report = broker_deal_config(&config).run(&profile(&strategies), &mut World::new(1));
        for (party, outcome) in &report.parties {
            println!(
                "  {party}: premium payoff {:+}, hedged {}",
                outcome.premium_payoff, outcome.hedged
            );
        }
        println!(
            "completed: {} | every compliant party hedged: {}",
            report.completed,
            report.all_compliant_hedged()
        );
    }
}
