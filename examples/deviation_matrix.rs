//! Prints the two-party deviation payoff matrix in the exact literal form
//! used by the golden regression test in `tests/conformance.rs`.
//!
//! When an *intentional* protocol change shifts payoffs, regenerate the
//! golden tables with:
//!
//! ```text
//! cargo run --release --example deviation_matrix
//! ```
//!
//! and paste the output over the `HEDGED_GOLDEN` / `BASE_GOLDEN` constants
//! after reviewing every changed row against §5 of the paper.

use sore_loser_hedging::chainsim::World;
use sore_loser_hedging::protocols::script::Protocol;
use sore_loser_hedging::protocols::two_party::{
    profile, strategy_space, TwoPartyConfig, TwoPartySwap,
};

fn main() {
    let config = TwoPartyConfig::default();
    for (name, swap) in
        [("HEDGED", TwoPartySwap::hedged(config.clone())), ("BASE", TwoPartySwap::base(config))]
    {
        println!("const {name}_GOLDEN: &[(&str, &str, bool, [i128; 6])] = &[");
        for alice in strategy_space() {
            for bob in strategy_space() {
                let r = swap.run(&profile(alice, bob), &mut World::new(1));
                println!(
                    "    (\"{alice}\", \"{bob}\", {}, [{}, {}, {}, {}, {}, {}]),",
                    r.swap_completed,
                    r.alice_apricot_payoff,
                    r.alice_banana_payoff,
                    r.alice_premium_payoff,
                    r.bob_apricot_payoff,
                    r.bob_banana_payoff,
                    r.bob_premium_payoff
                );
            }
        }
        println!("];");
    }
}
