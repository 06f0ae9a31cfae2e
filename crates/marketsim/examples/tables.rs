//! Prints experiment C7, the fair lock-up premium (CRR, principal 100,
//! blocks are hours), and C8, swap success with a rational counterparty.
use marketsim::adequacy::premium_grid;
use marketsim::rational::{compare_protocols, RationalExperiment};

fn main() {
    let rows = premium_grid(&[12, 24, 48, 96], &[0.25, 0.5, 1.0], 24 * 365).unwrap();
    let min = rows.iter().map(|r| r.premium).fold(f64::MAX, f64::min);
    let max = rows.iter().map(|r| r.premium).fold(0.0f64, f64::max);
    println!("premium range: {min:.2} .. {max:.2}");
    println!("lockup (blocks) | volatility | premium | fraction of principal");
    for r in &rows {
        println!(
            "{} | {:.2} | {:.3} | {:.4}",
            r.lockup_blocks, r.volatility, r.premium, r.premium_fraction
        );
    }
    for volatility in [0.2, 0.5, 1.0, 2.0] {
        let c =
            compare_protocols(&RationalExperiment { volatility, ..RationalExperiment::default() });
        println!(
            "vol {volatility}: base {:.2} hedged {:.2} abort payoffs {:.2}/{:.2}",
            c.base.success_rate,
            c.hedged.success_rate,
            c.base.mean_compliant_payoff_on_abort,
            c.hedged.mean_compliant_payoff_on_abort
        );
    }
}
