//! Quickstart: run the hedged two-party swap of §5.2 end to end, then show
//! what happens when Bob turns into a sore loser.

use sore_loser_hedging::chainsim::World;
use sore_loser_hedging::protocols::script::{Protocol, Strategy};
use sore_loser_hedging::protocols::two_party::{profile, TwoPartyConfig, TwoPartySwap};

fn main() {
    let swap = TwoPartySwap::hedged(TwoPartyConfig::default());

    println!("== Hedged two-party swap: both parties compliant ==");
    let compliant = profile(Strategy::compliant(), Strategy::compliant());
    let report = swap.run(&compliant, &mut World::new(1));
    println!("swap completed: {}", report.swap_completed);
    println!(
        "Alice: apricot {:+}, banana {:+}, premiums {:+}",
        report.alice_apricot_payoff, report.alice_banana_payoff, report.alice_premium_payoff
    );
    println!(
        "Bob:   apricot {:+}, banana {:+}, premiums {:+}",
        report.bob_apricot_payoff, report.bob_banana_payoff, report.bob_premium_payoff
    );

    println!();
    println!("== Bob walks away after the premium phase ==");
    let bob_walks = profile(Strategy::compliant(), Strategy::stop_after(1));
    let report = swap.run(&bob_walks, &mut World::new(1));
    println!("swap completed: {}", report.swap_completed);
    println!("Alice premium payoff: {:+} (compensated with p_b)", report.alice_premium_payoff);
    println!("Bob premium payoff:   {:+} (forfeits p_b)", report.bob_premium_payoff);
    println!(
        "Alice locked up for {} blocks and is hedged: {}",
        report.alice_lockup.principal_blocks, report.hedged_for_alice
    );
}
