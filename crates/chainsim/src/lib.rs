//! Deterministic multi-blockchain simulator with Δ-bounded synchrony.
//!
//! The hedged cross-chain protocols of Xue & Herlihy (PODC 2021) are defined
//! over a very small computational model (§3 of the paper):
//!
//! * several independent **blockchains**, each a tamper-proof ledger that
//!   tracks ownership of assets by parties and contracts;
//! * **smart contracts** that are passive, public, deterministic and can only
//!   read or write the ledger of the chain they reside on;
//! * a **synchronous execution model**: a change made to one chain is visible
//!   to every other party within a known bound Δ, measured in block heights.
//!
//! This crate implements that model. A [`World`] owns a set of
//! [`Blockchain`]s that advance in lock-step; contracts implement the
//! [`Contract`] trait and are invoked through typed messages; parties are
//! [`Actor`]s driven by the [`Scheduler`], which realises the synchronous
//! round structure: in each round every actor observes the world as of the
//! end of the previous round (propagation ≤ Δ), emits actions, and then all
//! chains advance by Δ blocks.
//!
//! # Examples
//!
//! ```
//! use chainsim::{AccountRef, Amount, AssetId, PartyId, World};
//!
//! let mut world = World::new(1);
//! let apricot = world.add_chain("apricot");
//! let tokens = AssetId(1);
//! let alice = PartyId(0);
//!
//! world
//!     .chain_mut(apricot)
//!     .ledger_mut()
//!     .mint(AccountRef::Party(alice), tokens, Amount::new(100));
//! assert_eq!(
//!     world.chain(apricot).ledger().balance(AccountRef::Party(alice), tokens),
//!     Amount::new(100)
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod amount;
mod caches;
mod chain;
mod contract;
mod error;
mod gas;
mod ids;
mod ledger;
mod sim;
mod spec;
mod time;
mod world;

pub use amount::{Amount, Payoff};
pub use caches::SimCaches;
pub use chain::{Blockchain, FinalityParams, ReorgEvent, ReorgPolicy, ReorgStats};
pub use contract::{CallEnv, Contract, ContractMessage};
pub use error::{ChainError, ContractError, LedgerError};
pub use gas::{GasMeter, GasSchedule};
pub use ids::{AssetId, ChainId, ContractAddr, ContractId, Label, PartyId};
pub use ledger::oracle::MapLedger;
pub use ledger::{AccountRef, Ledger};
pub use sim::{run_round, Action, Actor, Scheduler, Tally};
pub use spec::{Disposition, FundSpec, StateMachine, StateSpec, TimeWindow, TransitionSpec};
pub use time::{StepSchedule, Time};
pub use world::{TraceMode, World, WorldSnapshot};

// Thread-safety contract: simulated worlds and actions cross
// worker threads in the parallel model-checking engine, so these types must
// stay `Send`. `Contract` and `ContractMessage` carry `Send` as supertraits
// to make this hold for the boxed trait objects inside `World` and
// `Action`; this block turns an accidental regression (say, an `Rc` in a
// contract field) into a compile error here instead of a cryptic one in a
// downstream crate.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<World>();
    assert_send::<Action>();
    assert_send::<ChainError>();
    assert_send::<Box<dyn Contract>>();
    assert_send::<Box<dyn ContractMessage>>();
};
