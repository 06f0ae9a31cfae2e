//! Hedged cross-chain transaction protocols (the paper's contribution).
//!
//! This crate implements the distributed protocols of Xue & Herlihy,
//! *Hedging Against Sore Loser Attacks in Cross-Chain Transactions*
//! (PODC 2021), on top of the [`chainsim`] simulator and the [`contracts`]
//! crate:
//!
//! * [`two_party`] — the base (unhedged) HTLC swap of §5.1 and the hedged
//!   two-party swap of §5.2;
//! * [`bootstrap`] — premium bootstrapping (§6): extra rounds of hedged
//!   premium deposits that shrink the initial unprotected risk;
//! * [`multi_party`] — the hedged multi-party swap over an arbitrary
//!   strongly-connected digraph (§7), with escrow and redemption premiums
//!   computed from Equations (1) and (2);
//! * [`broker`] — the hedged brokered-commerce deal of §8;
//! * [`auction`] — the hedged auction of §9;
//! * [`outcome`] — payoff accounting and the *hedged* predicate;
//! * [`script`] — the scripted-party machinery, deviation strategies and
//!   the [`Protocol`](script::Protocol) trait every protocol implements.
//!
//! Each protocol is defined once, as a [`Protocol`](script::Protocol): a
//! [`two_party::TwoPartySwap`], a [`bootstrap::BootstrapConfig`], a
//! [`deal::DealConfig`] (multi-party swaps and the brokered sale) or an
//! [`auction::AuctionConfig`]. It runs one of two ways with identical
//! reports: from scratch with [`Protocol::run`](script::Protocol::run), or
//! from the world a [`Prefix`](script::Prefix) snapshotted right after
//! setup. Both end in the same
//! [`Protocol::report`](script::Protocol::report).
//!
//! # Examples
//!
//! ```
//! use chainsim::World;
//! use protocols::script::{Protocol, Strategy};
//! use protocols::two_party::{profile, TwoPartyConfig, TwoPartySwap};
//!
//! // Both parties comply: principals are swapped, premiums refunded.
//! let swap = TwoPartySwap::hedged(TwoPartyConfig::default());
//! let compliant = profile(Strategy::compliant(), Strategy::compliant());
//! let report = swap.run(&compliant, &mut World::new(1));
//! assert!(report.swap_completed);
//! assert!(report.hedged_for_alice && report.hedged_for_bob);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod auction;
pub mod bootstrap;
pub mod broker;
pub mod deal;
pub mod market;
pub mod multi_party;
pub mod outcome;
pub mod script;
pub mod two_party;
