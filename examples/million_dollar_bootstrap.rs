//! §6's headline example: hedging a $1,000,000 swap with 1% premiums and a
//! $4 initial lock-up risk needs just 3 bootstrapping rounds.

use sore_loser_hedging::chainsim::World;
use sore_loser_hedging::protocols::bootstrap::{BootstrapConfig, BootstrapDeviation, ALICE};
use sore_loser_hedging::protocols::script::Protocol;
use sore_loser_hedging::swapgraph::bootstrap::{bootstrap_plan, rounds_needed};

fn main() {
    let (a, b, ratio, risk) = (500_000u128, 500_000u128, 100u128, 4u128);
    let rounds = rounds_needed(a + b, risk, ratio);
    println!(
        "hedging a ${} swap with {}% premiums and ${risk} initial risk: {rounds} rounds",
        a + b,
        100 / ratio
    );

    let plan = bootstrap_plan(a, b, ratio, rounds);
    println!("{:<7} {:>15} {:>15}", "level", "Alice deposit", "Bob deposit");
    for level in &plan.levels {
        println!("{:<7} {:>15} {:>15}", level.level, level.alice_deposit, level.bob_deposit);
    }
    println!("initial (unprotected) risk: {}", plan.initial_risk());

    println!("\nOn-chain cascade, Alice defaults at level 1:");
    let deviation = BootstrapDeviation::StopAtLevel { party: ALICE, level: 1 };
    let report = BootstrapConfig::new(a, b, ratio, rounds)
        .run(&deviation.profile(rounds), &mut World::new(1));
    println!(
        "  Alice payoff {:+}, Bob payoff {:+}, compliant loss bounded: {}",
        report.alice_payoff, report.bob_payoff, report.loss_bounded_by_initial_risk
    );
}
