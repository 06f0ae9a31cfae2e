//! Hedging against sore loser attacks in cross-chain transactions.
//!
//! This is the facade crate of the workspace reproducing Xue & Herlihy,
//! *Hedging Against Sore Loser Attacks in Cross-Chain Transactions*
//! (PODC 2021). It re-exports the individual crates so applications can
//! depend on a single package:
//!
//! * [`chainsim`] — the multi-chain simulator with Δ-bounded synchrony;
//! * [`cryptosim`] — hashlocks, secrets and simulated signatures;
//! * [`contracts`] — HTLC, hedged, multi-party arc and auction contracts;
//! * [`swapgraph`] — swap digraphs, premium formulas, bootstrapping and
//!   Cox-Ross-Rubinstein premium pricing;
//! * [`protocols`] — the hedged two-party, multi-party, broker and auction
//!   protocols with payoff accounting;
//! * [`modelcheck`] — exhaustive deviation-strategy sweeps;
//! * [`marketsim`] — price paths, rational sore losers and premium adequacy;
//! * [`staticcheck`] — static protocol analysis: disposition-completeness,
//!   deadline-schedule feasibility and determinism lints.
//!
//! # Quick start
//!
//! Every scripted protocol is a
//! [`Protocol`](protocols::script::Protocol); [`Protocol::run`] runs one
//! strategy profile from scratch in a world it resets first.
//!
//! [`Protocol::run`]: protocols::script::Protocol::run
//!
//! ```
//! use sore_loser_hedging::chainsim::World;
//! use sore_loser_hedging::protocols::script::{Protocol, Strategy};
//! use sore_loser_hedging::protocols::two_party::{profile, TwoPartyConfig, TwoPartySwap};
//!
//! // Bob deposits his premium and then walks away; Alice is compensated.
//! let swap = TwoPartySwap::hedged(TwoPartyConfig::default());
//! let bob_walks = profile(Strategy::compliant(), Strategy::stop_after(1));
//! let report = swap.run(&bob_walks, &mut World::new(1));
//! assert!(!report.swap_completed);
//! assert!(report.hedged_for_alice);
//! assert!(report.alice_premium_payoff > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use chainsim;
pub use contracts;
pub use cryptosim;
pub use marketsim;
pub use modelcheck;
pub use protocols;
pub use staticcheck;
pub use swapgraph;
