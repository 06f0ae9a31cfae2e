//! Experiments C4/C6 — the paper's §10 model checking as exhaustive
//! deviation sweeps: every joint strategy of each protocol runs, and a
//! profile that leaves a compliant party unhedged counts as a violation.
//! The base swap's violations are the sore-loser attack itself.

use sore_loser_hedging::modelcheck::{
    check_auction, check_base_two_party, check_figure3_swap, check_hedged_two_party,
};

fn main() {
    println!("C4/C6: exhaustive deviation sweeps");
    println!("protocol | runs | violations");
    for (name, summary) in [
        ("hedged two-party swap", check_hedged_two_party()),
        ("base two-party swap", check_base_two_party()),
        ("three-party swap (Fig. 3a)", check_figure3_swap()),
        ("auction", check_auction()),
    ] {
        println!("{name} | {} | {}", summary.runs, summary.violations.len());
    }
}
