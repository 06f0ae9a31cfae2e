//! Prints experiment C3: the leader's redemption premium on cycles (linear)
//! and complete digraphs (exponential), and the bootstrap rounds that bring
//! the complete digraph's premium back to about n·p.
use swapgraph::bootstrap::rounds_needed;
use swapgraph::{premiums, Digraph};

fn main() {
    for n in 2..=6u32 {
        let cycle = premiums::leader_redemption_premium(&Digraph::cycle(n), 0, 1);
        let complete = premiums::leader_redemption_premium(&Digraph::complete(n), 0, 1);
        let rounds = rounds_needed(complete, u128::from(n), 10);
        println!("n={n} cycle={cycle} complete={complete} rounds={rounds}");
    }
}
