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

    println!("\nRounds needed at {}% premiums and ${risk} initial risk:", 100 / ratio);
    for value in [1_000u128, 10_000, 100_000, 1_000_000, 10_000_000] {
        println!("  ${value}: {}", rounds_needed(value, risk, ratio));
    }

    println!("\nCascade schedule in steps of Δ: each level's slot, and the horizon");
    println!("where every escrow's redeem deadline sits:");
    println!("{:<7} {:>15} {:>15}", "rounds", "level slot", "horizon");
    for rounds in 0..=5u32 {
        let config = BootstrapConfig::new(a, b, ratio, rounds);
        let delta = config.delta_blocks();
        let (slot, horizon) = (config.level_blocks() / delta, config.horizon().height() / delta);
        println!("{rounds:<7} {slot:>15} {horizon:>15}");
    }
}
