//! Side-by-side comparison of the unhedged base swap (§5.1) and the hedged
//! swap (§5.2) under every unilateral deviation point — the paper's
//! motivating table.

use sore_loser_hedging::chainsim::World;
use sore_loser_hedging::protocols::script::{Protocol, Strategy};
use sore_loser_hedging::protocols::two_party::{profile, TwoPartyConfig, TwoPartySwap};

fn main() {
    let base_swap = TwoPartySwap::base(TwoPartyConfig::default());
    let hedged_swap = TwoPartySwap::hedged(TwoPartyConfig::default());
    println!(
        "{:<34} {:>9} {:>9} {:>11} {:>8}",
        "scenario", "A premium", "B premium", "A lockup", "hedged"
    );
    for (label, alice, bob) in [
        ("compliant / compliant", Strategy::compliant(), Strategy::compliant()),
        ("compliant / Bob quits early", Strategy::compliant(), Strategy::stop_after(0)),
        ("compliant / Bob quits mid-swap", Strategy::compliant(), Strategy::stop_after(1)),
        ("Alice quits mid-swap / compliant", Strategy::stop_after(2), Strategy::compliant()),
    ] {
        let base = base_swap.run(&profile(alice, bob), &mut World::new(1));
        let hedged = hedged_swap.run(&profile(alice, bob), &mut World::new(1));
        println!(
            "base   {:<27} {:>9} {:>9} {:>11} {:>8}",
            label,
            base.alice_premium_payoff,
            base.bob_premium_payoff,
            base.alice_lockup.principal_blocks,
            base.hedged_for_alice && base.hedged_for_bob
        );
        println!(
            "hedged {:<27} {:>9} {:>9} {:>11} {:>8}",
            label,
            hedged.alice_premium_payoff,
            hedged.bob_premium_payoff,
            hedged.alice_lockup.principal_blocks,
            hedged.hedged_for_alice && hedged.hedged_for_bob
        );
    }
}
