//! A single simulated blockchain.

use std::collections::VecDeque;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::amount::Amount;
use crate::caches::SimCaches;
use crate::contract::{unwind, CallEnv, Contract, ContractMessage, UndoOp};
use crate::error::ChainError;
#[cfg(test)]
use crate::error::ContractError;
use crate::gas::GasSchedule;
use crate::ids::{AssetId, ChainId, ContractId, PartyId};
use crate::ledger::{AccountRef, Ledger};
use crate::time::Time;

/// Per-chain finality and synchrony parameters.
///
/// `depth` is the chain's *finality lag*, measured in rounds: the effects of
/// the last `depth` rounds are speculative and can be rewound by a
/// [`ReorgEvent`]; anything older is final. The default depth of zero keeps
/// the pre-existing instantly-final semantics (no speculative window is
/// maintained, so the hot sweep paths pay nothing).
///
/// `delta` is the chain's own synchrony bound Δ in blocks — how far this
/// chain advances per world round. A value of zero inherits the world's
/// global Δ; setting it per chain models heterogeneous block cadences
/// (a fast chain and a slow chain in the same swap).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FinalityParams {
    /// Trailing rounds whose effects are revertible. Zero = instantly final.
    pub depth: u32,
    /// This chain's Δ in blocks per round; zero inherits the world's Δ.
    pub delta: u64,
}

impl FinalityParams {
    /// Instant finality at the world's global Δ: the default, and the exact
    /// semantics every chain had before finality lag existed.
    pub const INSTANT: FinalityParams = FinalityParams { depth: 0, delta: 0 };
}

/// What a reorg does with the speculative calls it rewinds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReorgPolicy {
    /// Rewound calls return to the mempool and re-execute, in their original
    /// order, at the reorg height — the common case on real chains, where
    /// transactions from orphaned blocks are re-included in the canonical
    /// branch (and may now fail, e.g. against a deadline they originally
    /// beat).
    #[default]
    Redeliver,
    /// Rewound calls vanish entirely — censorship or transaction loss.
    /// Contract publishes are still re-delivered (dropping one would
    /// invalidate every later contract id on the chain).
    DropCalls,
}

/// A deterministic, scheduled chain reorganisation.
///
/// At the end of world round `at_round` (before the round's height advance),
/// the last `depth` speculative rounds of `chain` are rewound to their
/// pre-round state and the rewound calls are re-delivered or dropped per
/// `policy`. Block heights never rewind: the rewritten history re-executes
/// at the reorg height, which is exactly how a live observer experiences a
/// reorg (the clock keeps moving while the ledger's recent past changes).
///
/// Depths beyond the chain's [`FinalityParams::depth`] are clamped to the
/// speculative window: finalized rounds cannot reorg.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReorgEvent {
    /// The chain to reorganise.
    pub chain: ChainId,
    /// The world round at whose end the reorg strikes.
    pub at_round: u64,
    /// How many trailing speculative rounds to rewind.
    pub depth: u32,
    /// Re-deliver or drop the rewound calls.
    pub policy: ReorgPolicy,
}

/// Counters describing the reorgs a chain has absorbed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReorgStats {
    /// Reorg events that rewound at least one round.
    pub reorgs: u64,
    /// Successful calls rewound by reorgs.
    pub rewound_calls: u64,
    /// Rewound calls that were re-delivered and succeeded again.
    pub redelivered_calls: u64,
    /// Rewound calls dropped by [`ReorgPolicy::DropCalls`].
    pub dropped_calls: u64,
    /// Rewound calls that were re-delivered but failed at the reorg height
    /// (typically against a deadline they originally beat).
    pub redelivery_failures: u64,
}

/// One speculative round's journal: the marks and undo entries that rewind
/// the chain to the round's start, plus the effective actions applied
/// during it (the replay log a reorg re-delivers).
#[derive(Clone)]
struct SpecRound {
    /// The height the round opened at. Heights never rewind; the restore
    /// integrity checks read it.
    height: Time,
    /// Contract count and gas total at the start.
    contracts: usize,
    gas_total: u64,
    /// Ledger transfers and mints, in execution order.
    undo: Vec<UndoOp>,
    /// Each committed call's pre-call contract state, in call order. A
    /// reorg restores them newest-first, so every contract the round called
    /// lands at its round-start state.
    backups: Vec<(usize, Box<dyn Contract>)>,
    actions: Vec<RecordedAction>,
}

/// An action recorded in the speculative window for possible re-delivery.
enum RecordedAction {
    Publish(Box<dyn Contract>),
    Call { caller: PartyId, contract: ContractId, msg: Box<dyn ContractMessage> },
}

impl Clone for RecordedAction {
    fn clone(&self) -> RecordedAction {
        match self {
            RecordedAction::Publish(contract) => RecordedAction::Publish(contract.clone_box()),
            RecordedAction::Call { caller, contract, msg } => RecordedAction::Call {
                caller: *caller,
                contract: *contract,
                msg: msg.clone_message(),
            },
        }
    }
}

/// A simulated blockchain: a ledger, a contract store and a block clock.
///
/// Chains are created through [`crate::World::add_chain`] and advance their
/// heights in lock-step with the rest of the world. All state is public:
/// any party may read the ledger, the gas total and the state of any
/// contract (via [`Blockchain::contract_as`]), mirroring the transparency
/// assumption of the paper.
///
/// Contracts are stored in a dense `Vec` indexed by their sequentially
/// assigned [`ContractId`]s, and the whole chain can be recycled between
/// scenario runs (see [`crate::World::reset`]) without dropping the ledger
/// or contract-store allocations. A clone is a full snapshot of the chain,
/// speculative window included.
#[derive(Clone)]
pub struct Blockchain {
    id: ChainId,
    name: String,
    native_asset: AssetId,
    height: Time,
    ledger: Ledger,
    /// Slot `i` holds the contract with `ContractId(i)`; a slot is `None`
    /// only transiently while its contract is executing a call.
    contracts: Vec<Option<Box<dyn Contract>>>,
    /// Gas burned on this chain; see the `gas` module.
    gas_total: u64,
    finality: FinalityParams,
    /// The speculative window: one journal per revertible round, oldest
    /// first. Empty whenever `finality.depth == 0`.
    window: VecDeque<SpecRound>,
    reorg_stats: ReorgStats,
    /// The undo journal of calls made outside a finality window, where a
    /// committed call is final at once; empty between calls.
    undo: Vec<UndoOp>,
}

impl Blockchain {
    /// Creates a new chain. Called by [`crate::World::add_chain`].
    pub(crate) fn new(id: ChainId, name: impl Into<String>, native_asset: AssetId) -> Self {
        Blockchain {
            id,
            name: name.into(),
            native_asset,
            height: Time::ZERO,
            ledger: Ledger::new(),
            contracts: Vec::new(),
            gas_total: 0,
            finality: FinalityParams::INSTANT,
            window: VecDeque::new(),
            reorg_stats: ReorgStats::default(),
            undo: Vec::new(),
        }
    }

    /// Re-initialises a retired chain shell for a new run, retaining the
    /// ledger and contract-store allocations. Called by
    /// [`crate::World::add_chain`] when a spare shell is available.
    pub(crate) fn recycle(&mut self, id: ChainId, name: &str, native_asset: AssetId) {
        self.id = id;
        self.name.clear();
        self.name.push_str(name);
        self.native_asset = native_asset;
        self.height = Time::ZERO;
        self.ledger.clear();
        self.contracts.clear();
        self.gas_total = 0;
        self.finality = FinalityParams::INSTANT;
        self.window.clear();
        self.reorg_stats = ReorgStats::default();
    }

    /// The chain's identifier.
    pub fn id(&self) -> ChainId {
        self.id
    }

    /// The chain's human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The chain's native currency, used to denominate premiums.
    pub fn native_asset(&self) -> AssetId {
        self.native_asset
    }

    /// The current block height.
    pub fn height(&self) -> Time {
        self.height
    }

    /// Read-only access to the ledger.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Mutable access to the ledger, intended for setup (initial
    /// endowments, [`Ledger::reserve`]).
    ///
    /// Edits made through it are final: they bypass the speculative
    /// window's journal, so a reorg does not rewind them. Use
    /// [`Blockchain::mint`] to endow a party inside an open window.
    pub fn ledger_mut(&mut self) -> &mut Ledger {
        &mut self.ledger
    }

    /// Convenience: the balance of `account` in `asset`.
    pub fn balance(&self, account: AccountRef, asset: AssetId) -> Amount {
        self.ledger.balance(account, asset)
    }

    /// Mints `amount` of `asset` to a party. Inside a finality window the
    /// mint is speculative: a reorg rewinds it.
    pub fn mint(&mut self, party: PartyId, asset: AssetId, amount: Amount) {
        let account = AccountRef::Party(party);
        if let Some(round) = self.window.back_mut() {
            round.undo.push(UndoOp::mint(&self.ledger, account, asset, amount));
        }
        self.ledger.mint(account, asset, amount);
    }

    /// The gas burned on this chain by every publish and call, failed
    /// calls included, since creation or the last recycle.
    pub fn gas_total(&self) -> u64 {
        self.gas_total
    }

    /// The chain's finality parameters (instant finality by default).
    pub fn finality(&self) -> FinalityParams {
        self.finality
    }

    /// Sets the chain's finality parameters.
    ///
    /// A non-zero `depth` opens the speculative window immediately: from
    /// this point on, the chain records each round's successful calls and
    /// publishes so a [`ReorgEvent`] can rewind and re-deliver them.
    /// Intended for world setup; re-configuring mid-run discards the window
    /// recorded so far (the past becomes final).
    pub fn set_finality(&mut self, params: FinalityParams) {
        self.finality = params;
        self.window.clear();
        if params.depth > 0 {
            self.window.push_back(self.open_round());
        }
    }

    /// Counters describing the reorgs this chain has absorbed.
    pub fn reorg_stats(&self) -> ReorgStats {
        self.reorg_stats
    }

    /// Publishes a new contract and returns its id.
    ///
    /// Publishing burns [`GasSchedule::publish`] gas.
    pub fn publish(&mut self, contract: Box<dyn Contract>) -> ContractId {
        let id = ContractId(self.contracts.len() as u64);
        self.gas_total += GasSchedule::DEFAULT.publish;
        if let Some(round) = self.window.back_mut() {
            // Record the contract's initial state: a re-delivered publish
            // replays later calls on top, reproducing the rewound history.
            round.actions.push(RecordedAction::Publish(contract.clone_box()));
        }
        self.contracts.push(Some(contract));
        id
    }

    /// Calls contract `id` with the typed message `msg` on behalf of `caller`.
    ///
    /// Calls are transactional. On success every effect commits; on failure
    /// the ledger operations the contract performed before failing are
    /// rolled back, and the contract's own state is untouched because a
    /// handler checks before it writes (see [`Contract::handle`]), so a
    /// failed call leaves **zero residue** — except gas, which stays charged
    /// for the work attempted.
    ///
    /// The chain copies a contract only for a reorg: inside a finality
    /// window, each committed call keeps the contract's pre-call clone in
    /// the round's journal. Outside a window a call clones nothing. Debug
    /// builds and the `strict-rollback` feature clone the contract before
    /// every call and, after a failed one, assert that its `Debug` form
    /// still equals the clone's and that the caller's and the contract's
    /// balances are back where they started.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::NoSuchContract`] if `id` is unknown, or
    /// [`ChainError::ContractFailed`] wrapping the
    /// [`ContractError`](crate::ContractError) if the contract rejects the
    /// call.
    pub fn call(
        &mut self,
        caller: PartyId,
        id: ContractId,
        msg: &dyn ContractMessage,
        directory: &cryptosim::KeyDirectory,
        caches: &mut SimCaches,
    ) -> Result<(), ChainError> {
        // Temporarily take the contract out of its slot so that it and the
        // ledger can be borrowed mutably at the same time.
        let slot = id.0 as usize;
        let mut contract = self
            .contracts
            .get_mut(slot)
            .and_then(Option::take)
            .ok_or(ChainError::NoSuchContract { chain: self.id, contract: id })?;
        // Inside a finality window a committed call leaves its pre-call
        // state in the round's journal for a reorg.
        let backup = (!self.window.is_empty()).then(|| contract.clone_box());
        #[cfg(any(debug_assertions, feature = "strict-rollback"))]
        let (pre_call, balances_probe) = {
            let contract_account = AccountRef::Contract(id);
            let caller_account = AccountRef::Party(caller);
            let balances = self
                .ledger
                .assets()
                .into_iter()
                .map(|asset| {
                    (
                        asset,
                        self.ledger.balance(contract_account, asset),
                        self.ledger.balance(caller_account, asset),
                    )
                })
                .collect::<Vec<_>>();
            (contract.clone_box(), balances)
        };
        // Inside a finality window the call journals into the open round,
        // where its committed transfers stay reversible.
        let journal = match self.window.back_mut() {
            Some(round) => &mut round.undo,
            None => &mut self.undo,
        };
        let mut env = CallEnv::new(
            self.id,
            id,
            caller,
            self.height,
            &mut self.ledger,
            journal,
            directory,
            caches,
        );
        let result = contract.handle(&mut env, msg.as_any());
        let gas_used = env.gas_used();
        if result.is_err() {
            env.rollback_all();
        }
        self.undo.clear();
        // Failed calls still burn the gas they consumed before failing.
        self.gas_total += gas_used;
        match result {
            Ok(()) => {
                self.contracts[slot] = Some(contract);
                if let Some(round) = self.window.back_mut() {
                    round.backups.extend(backup.map(|backup| (slot, backup)));
                    round.actions.push(RecordedAction::Call {
                        caller,
                        contract: id,
                        msg: msg.clone_message(),
                    });
                }
                Ok(())
            }
            Err(err) => {
                // The audit: the ledger was unwound above, and the handler
                // must have left its own state as it found it.
                #[cfg(any(debug_assertions, feature = "strict-rollback"))]
                {
                    assert_eq!(
                        format!("{contract:?}"),
                        format!("{pre_call:?}"),
                        "failed call changed the contract's state: a handler must check \
                         before it writes"
                    );
                    for (asset, contract_before, caller_before) in balances_probe {
                        assert_eq!(
                            self.ledger.balance(AccountRef::Contract(id), asset),
                            contract_before,
                            "failed call left residue in the contract account"
                        );
                        assert_eq!(
                            self.ledger.balance(AccountRef::Party(caller), asset),
                            caller_before,
                            "failed call left residue in the caller account"
                        );
                    }
                }
                self.contracts[slot] = Some(contract);
                Err(ChainError::ContractFailed { contract: id, source: err })
            }
        }
    }

    /// Returns a reference to the contract with id `id`, if any.
    pub fn contract(&self, id: ContractId) -> Option<&dyn Contract> {
        self.contracts.get(id.0 as usize).and_then(|slot| slot.as_deref())
    }

    /// Returns the contract downcast to its concrete type `T`, if it exists
    /// and has that type.
    ///
    /// Contract state is public, so any party (and the test suite) may
    /// inspect it this way.
    pub fn contract_as<T: Contract + 'static>(&self, id: ContractId) -> Option<&T> {
        self.contract(id).and_then(|c| c.as_any().downcast_ref::<T>())
    }

    /// The number of contracts published on this chain.
    pub fn contract_count(&self) -> usize {
        self.contracts.len()
    }

    /// Iterates over the live contracts on this chain, in publication
    /// order. Static analyzers use this to collect every published
    /// contract's [`StateSpec`](crate::StateSpec) without knowing the
    /// concrete types.
    pub fn contracts(&self) -> impl Iterator<Item = &dyn Contract> {
        self.contracts.iter().filter_map(|slot| slot.as_deref())
    }

    /// Advances the chain by `blocks` blocks.
    pub(crate) fn advance_blocks(&mut self, blocks: u64) {
        self.height = self.height.plus(blocks);
    }

    /// An empty round journal opening at the chain's current state.
    fn open_round(&self) -> SpecRound {
        SpecRound {
            height: self.height,
            contracts: self.contracts.len(),
            gas_total: self.gas_total,
            undo: Vec::new(),
            backups: Vec::new(),
            actions: Vec::new(),
        }
    }

    /// Closes the current world round: advances the height by `blocks` and,
    /// when finality lag is configured, rolls the speculative window forward
    /// (opening the next round's journal and dropping the journals of rounds
    /// that fall off the window, which are final). Called by the world at
    /// every round boundary.
    pub(crate) fn end_round(&mut self, blocks: u64) {
        self.height = self.height.plus(blocks);
        if self.finality.depth > 0 {
            self.window.push_back(self.open_round());
            while self.window.len() > self.finality.depth as usize {
                self.window.pop_front();
            }
        }
    }

    /// Executes a reorg of `depth` rounds (clamped to the speculative
    /// window) at the current height: unwinds the rewound rounds' journals
    /// newest-first back to the start of the oldest, whose opening gas total
    /// it restores — heights never move backwards — then re-delivers the rewound publishes and, per `policy`,
    /// the rewound calls, in their original order at the current height.
    /// Returns the number of rounds actually rewound.
    pub(crate) fn reorg(
        &mut self,
        depth: u32,
        policy: ReorgPolicy,
        directory: &cryptosim::KeyDirectory,
        caches: &mut SimCaches,
    ) -> u32 {
        let rewound = (depth as usize).min(self.window.len());
        if rewound == 0 {
            return 0;
        }
        let mut drained = self.window.split_off(self.window.len() - rewound);
        for round in drained.iter_mut().rev() {
            unwind(&mut self.ledger, &mut round.undo, 0);
            for (slot, backup) in round.backups.drain(..).rev() {
                self.contracts[slot] = Some(backup);
            }
            self.contracts.truncate(round.contracts);
            self.gas_total = round.gas_total;
        }
        // Re-open the current round on top of the rewound state; re-delivered
        // actions are recorded into it like any other call of this round.
        self.window.push_back(self.open_round());
        self.reorg_stats.reorgs += 1;
        for round in drained {
            for action in round.actions {
                match action {
                    RecordedAction::Publish(contract) => {
                        // Publishes always re-land: contract ids are
                        // sequential, so dropping one would orphan every
                        // later id on the chain.
                        self.publish(contract);
                    }
                    RecordedAction::Call { caller, contract, msg } => {
                        self.reorg_stats.rewound_calls += 1;
                        match policy {
                            ReorgPolicy::DropCalls => self.reorg_stats.dropped_calls += 1,
                            ReorgPolicy::Redeliver => {
                                match self.call(caller, contract, msg.as_ref(), directory, caches) {
                                    Ok(()) => self.reorg_stats.redelivered_calls += 1,
                                    Err(_) => self.reorg_stats.redelivery_failures += 1,
                                }
                            }
                        }
                    }
                }
            }
        }
        rewound as u32
    }

    /// Restores the chain (possibly a recycled spare shell) to `snap`, a
    /// clone taken by [`crate::World::snapshot`], reusing the ledger and
    /// name allocations. The speculative/finalized split is
    /// restored exactly: finality parameters, the round journals and reorg
    /// counters all come from the snapshot, so state a reorg reverted before
    /// the snapshot can never resurrect (debug builds assert the restored
    /// window's integrity).
    pub(crate) fn restore_from(&mut self, snap: &Blockchain) {
        self.id = snap.id;
        self.name.clone_from(&snap.name);
        self.native_asset = snap.native_asset;
        self.height = snap.height;
        self.ledger.clone_from(&snap.ledger);
        self.contracts.clone_from(&snap.contracts);
        self.gas_total = snap.gas_total;
        self.finality = snap.finality;
        self.window.clone_from(&snap.window);
        self.reorg_stats = snap.reorg_stats;
        debug_assert!(
            self.window.len() <= self.finality.depth as usize,
            "restored speculative window exceeds the finality depth"
        );
        debug_assert!(
            self.window.iter().all(|round| round.height <= self.height),
            "restored speculative window reaches past the chain tip: a \
             restore must never resurrect reverted speculative state"
        );
        debug_assert!(
            self.window.iter().zip(self.window.iter().skip(1)).all(|(a, b)| a.height <= b.height),
            "restored speculative window must be oldest-first"
        );
    }
}

impl fmt::Debug for Blockchain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Blockchain")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("height", &self.height)
            .field("contracts", &self.contracts.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use std::any::Any;

    use super::*;

    /// A minimal counter contract used to exercise the chain plumbing.
    #[derive(Clone, Debug, Default)]
    struct Counter {
        count: u64,
        deposited: Amount,
    }

    #[derive(Clone, Debug)]
    enum CounterMsg {
        Bump,
        /// Bumps only while `now <= deadline` — fails with `TooLate` after,
        /// which is exactly what happens to a re-delivered last-tick call.
        BumpBefore(Time),
        Deposit(Amount),
        Fail,
        /// Bumps and then fails: a handler that writes before it fails,
        /// which the rollback audit must catch.
        #[cfg_attr(not(any(debug_assertions, feature = "strict-rollback")), allow(dead_code))]
        BumpThenFail,
    }

    impl Contract for Counter {
        fn type_name(&self) -> &'static str {
            "Counter"
        }

        fn clone_box(&self) -> Box<dyn Contract> {
            Box::new(self.clone())
        }

        fn handle(&mut self, env: &mut CallEnv<'_>, msg: &dyn Any) -> Result<(), ContractError> {
            let msg = msg.downcast_ref::<CounterMsg>().ok_or(ContractError::UnsupportedMessage)?;
            match msg {
                CounterMsg::Bump => {
                    self.count += 1;
                    Ok(())
                }
                CounterMsg::BumpBefore(deadline) => {
                    if env.now() > *deadline {
                        return Err(ContractError::TooLate { deadline: *deadline, now: env.now() });
                    }
                    self.count += 1;
                    Ok(())
                }
                CounterMsg::Deposit(amount) => {
                    env.debit_caller(AssetId(0), *amount)?;
                    self.deposited += *amount;
                    Ok(())
                }
                CounterMsg::Fail => Err(ContractError::invalid_state("always fails")),
                CounterMsg::BumpThenFail => {
                    self.count += 1;
                    Err(ContractError::invalid_state("fails after bumping"))
                }
            }
        }

        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    fn chain_fixture() -> Blockchain {
        Blockchain::new(ChainId(0), "apricot", AssetId(100))
    }

    fn dir() -> cryptosim::KeyDirectory {
        cryptosim::KeyDirectory::new()
    }

    fn caches() -> SimCaches {
        SimCaches::new()
    }

    #[test]
    fn publish_and_call_contract() {
        let mut chain = chain_fixture();
        let id = chain.publish(Box::new(Counter::default()));
        chain.call(PartyId(0), id, &CounterMsg::Bump, &dir(), &mut caches()).unwrap();
        chain.call(PartyId(1), id, &CounterMsg::Bump, &dir(), &mut caches()).unwrap();
        let counter = chain.contract_as::<Counter>(id).unwrap();
        assert_eq!(counter.count, 2);
        assert_eq!(chain.contract_count(), 1);
    }

    #[test]
    fn call_unknown_contract_fails() {
        let mut chain = chain_fixture();
        let err = chain
            .call(PartyId(0), ContractId(9), &CounterMsg::Bump, &dir(), &mut caches())
            .unwrap_err();
        assert!(matches!(err, ChainError::NoSuchContract { .. }));
    }

    #[test]
    fn failed_calls_are_logged_and_propagated() {
        let mut chain = chain_fixture();
        let id = chain.publish(Box::new(Counter::default()));
        let gas = chain.gas_total();
        let err = chain.call(PartyId(0), id, &CounterMsg::Fail, &dir(), &mut caches()).unwrap_err();
        assert!(matches!(
            &err,
            ChainError::ContractFailed { source, .. } if source.to_string().contains("always fails")
        ));
        // The gas total meters the rejected call.
        assert_eq!(chain.gas_total() - gas, GasSchedule::DEFAULT.call_base);
        // The contract survives a failed call.
        assert!(chain.contract(id).is_some());
    }

    #[test]
    #[cfg(any(debug_assertions, feature = "strict-rollback"))]
    #[should_panic(expected = "a handler must check before it writes")]
    fn the_audit_catches_a_handler_that_writes_before_it_fails() {
        let mut chain = chain_fixture();
        let id = chain.publish(Box::new(Counter::default()));
        let _ = chain.call(PartyId(0), id, &CounterMsg::BumpThenFail, &dir(), &mut caches());
    }

    #[test]
    fn unsupported_message_is_rejected() {
        let mut chain = chain_fixture();
        let id = chain.publish(Box::new(Counter::default()));
        #[derive(Clone, Debug)]
        struct Bogus;
        let err = chain.call(PartyId(0), id, &Bogus, &dir(), &mut caches()).unwrap_err();
        assert!(matches!(
            err,
            ChainError::ContractFailed { source: ContractError::UnsupportedMessage, .. }
        ));
    }

    #[test]
    fn deposits_move_funds_into_contract_account() {
        let mut chain = chain_fixture();
        chain.mint(PartyId(0), AssetId(0), Amount::new(10));
        let id = chain.publish(Box::new(Counter::default()));
        chain
            .call(PartyId(0), id, &CounterMsg::Deposit(Amount::new(6)), &dir(), &mut caches())
            .unwrap();
        assert_eq!(chain.balance(AccountRef::Contract(id), AssetId(0)), Amount::new(6));
        assert_eq!(chain.balance(AccountRef::Party(PartyId(0)), AssetId(0)), Amount::new(4));
        assert_eq!(chain.contract_as::<Counter>(id).unwrap().deposited, Amount::new(6));
    }

    #[test]
    fn heights_advance_and_contract_ids_start_at_zero() {
        let mut chain = chain_fixture();
        chain.advance_blocks(5);
        let id = chain.publish(Box::new(Counter::default()));
        assert_eq!(chain.height(), Time(5));
        assert_eq!(id, ContractId(0));
    }

    #[test]
    fn metadata_accessors() {
        let chain = chain_fixture();
        assert_eq!(chain.id(), ChainId(0));
        assert_eq!(chain.name(), "apricot");
        assert_eq!(chain.native_asset(), AssetId(100));
        assert!(format!("{chain:?}").contains("Blockchain"));
    }

    #[test]
    fn recycle_resets_state_and_keeps_nothing_visible() {
        let mut chain = chain_fixture();
        chain.mint(PartyId(0), AssetId(0), Amount::new(10));
        let id = chain.publish(Box::new(Counter::default()));
        chain.call(PartyId(0), id, &CounterMsg::Bump, &dir(), &mut caches()).unwrap();
        chain.advance_blocks(7);

        chain.recycle(ChainId(3), "banana", AssetId(9));
        assert_eq!(chain.id(), ChainId(3));
        assert_eq!(chain.name(), "banana");
        assert_eq!(chain.native_asset(), AssetId(9));
        assert_eq!(chain.height(), Time::ZERO);
        assert_eq!(chain.contract_count(), 0);
        assert_eq!(chain.balance(AccountRef::Party(PartyId(0)), AssetId(0)), Amount::ZERO);
        // Fresh publishes start over at contract id 0.
        let id = chain.publish(Box::new(Counter::default()));
        assert_eq!(id, ContractId(0));
    }

    #[test]
    fn gas_is_metered_per_call_and_burned_on_failure() {
        let schedule = GasSchedule::DEFAULT;
        let mut chain = chain_fixture();
        chain.mint(PartyId(0), AssetId(0), Amount::new(10));
        let id = chain.publish(Box::new(Counter::default()));
        assert_eq!(chain.gas_total(), schedule.publish);

        chain.call(PartyId(1), id, &CounterMsg::Bump, &dir(), &mut caches()).unwrap();
        assert_eq!(chain.gas_total(), schedule.publish + schedule.call_base);
        chain
            .call(PartyId(0), id, &CounterMsg::Deposit(Amount::new(6)), &dir(), &mut caches())
            .unwrap();
        let gas = chain.gas_total();
        assert_eq!(gas, schedule.publish + 2 * schedule.call_base + schedule.ledger_op);
        // Failed calls still burn their base gas.
        let _ = chain.call(PartyId(1), id, &CounterMsg::Fail, &dir(), &mut caches()).unwrap_err();
        assert_eq!(chain.gas_total() - gas, schedule.call_base);
    }

    #[test]
    fn gas_meter_is_cleared_by_recycle() {
        let mut chain = chain_fixture();
        let id = chain.publish(Box::new(Counter::default()));
        chain.call(PartyId(0), id, &CounterMsg::Bump, &dir(), &mut caches()).unwrap();
        assert!(chain.gas_total() > 0);
        chain.recycle(ChainId(1), "fresh", AssetId(0));
        assert_eq!(chain.gas_total(), 0);
    }

    #[test]
    fn contract_as_with_wrong_type_returns_none() {
        #[derive(Clone, Debug)]
        struct Other;
        impl Contract for Other {
            fn type_name(&self) -> &'static str {
                "Other"
            }
            fn clone_box(&self) -> Box<dyn Contract> {
                Box::new(self.clone())
            }
            fn handle(&mut self, _: &mut CallEnv<'_>, _: &dyn Any) -> Result<(), ContractError> {
                Ok(())
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
        }
        let mut chain = chain_fixture();
        let id = chain.publish(Box::new(Counter::default()));
        assert!(chain.contract_as::<Other>(id).is_none());
        assert!(chain.contract_as::<Counter>(ContractId(99)).is_none());
    }

    #[test]
    fn finality_window_tracks_the_trailing_rounds() {
        let mut chain = chain_fixture();
        chain.set_finality(FinalityParams { depth: 2, delta: 0 });
        assert_eq!(chain.finality(), FinalityParams { depth: 2, delta: 0 });
        let id = chain.publish(Box::new(Counter::default()));
        for _ in 0..5 {
            chain.call(PartyId(0), id, &CounterMsg::Bump, &dir(), &mut caches()).unwrap();
            chain.end_round(1);
        }
        assert_eq!(chain.window.len(), 2);
        assert_eq!(chain.height(), Time(5));
        // The open (current) round has no actions yet; the previous one
        // recorded its single call.
        assert!(chain.window.back().unwrap().actions.is_empty());
        assert_eq!(chain.window.front().unwrap().actions.len(), 1);
    }

    #[test]
    fn redeliver_reorg_replays_history_identically() {
        let mut chain = chain_fixture();
        chain.mint(PartyId(0), AssetId(0), Amount::new(10));
        chain.set_finality(FinalityParams { depth: 3, delta: 0 });
        let id = chain.publish(Box::new(Counter::default()));
        chain.end_round(1);
        chain
            .call(PartyId(0), id, &CounterMsg::Deposit(Amount::new(6)), &dir(), &mut caches())
            .unwrap();
        chain.end_round(1);
        chain.call(PartyId(0), id, &CounterMsg::Bump, &dir(), &mut caches()).unwrap();
        let gas = chain.gas_total();

        let rewound = chain.reorg(2, ReorgPolicy::Redeliver, &dir(), &mut caches());
        assert_eq!(rewound, 2);
        // Pure re-delivery of deadline-free calls is observationally
        // identical: balances, contract state and gas land where they
        // started.
        assert_eq!(chain.gas_total(), gas);
        assert_eq!(chain.balance(AccountRef::Contract(id), AssetId(0)), Amount::new(6));
        assert_eq!(chain.balance(AccountRef::Party(PartyId(0)), AssetId(0)), Amount::new(4));
        let counter = chain.contract_as::<Counter>(id).unwrap();
        assert_eq!(counter.count, 1);
        assert_eq!(counter.deposited, Amount::new(6));
        // Heights never rewind.
        assert_eq!(chain.height(), Time(2));
        let stats = chain.reorg_stats();
        assert_eq!(stats.reorgs, 1);
        assert_eq!(stats.rewound_calls, 2);
        assert_eq!(stats.redelivered_calls, 2);
        assert_eq!(stats.dropped_calls, 0);
        assert_eq!(stats.redelivery_failures, 0);
    }

    #[test]
    fn drop_calls_reorg_erases_calls_but_keeps_publishes() {
        let mut chain = chain_fixture();
        chain.mint(PartyId(0), AssetId(0), Amount::new(10));
        chain.set_finality(FinalityParams { depth: 2, delta: 0 });
        chain.end_round(1);
        let opening_gas = chain.gas_total();
        let id = chain.publish(Box::new(Counter::default()));
        chain
            .call(PartyId(0), id, &CounterMsg::Deposit(Amount::new(6)), &dir(), &mut caches())
            .unwrap();
        chain.end_round(1);
        // A second speculative round of calls, which opens at a higher gas
        // total than the first.
        chain.call(PartyId(0), id, &CounterMsg::Bump, &dir(), &mut caches()).unwrap();
        chain
            .call(PartyId(0), id, &CounterMsg::Deposit(Amount::new(1)), &dir(), &mut caches())
            .unwrap();

        let rewound = chain.reorg(2, ReorgPolicy::DropCalls, &dir(), &mut caches());
        assert_eq!(rewound, 2);
        // The publish re-landed (same id), the calls of both rounds vanished.
        let counter = chain.contract_as::<Counter>(id).unwrap();
        assert_eq!((counter.count, counter.deposited), (0, Amount::ZERO));
        assert_eq!(chain.balance(AccountRef::Contract(id), AssetId(0)), Amount::ZERO);
        assert_eq!(chain.balance(AccountRef::Party(PartyId(0)), AssetId(0)), Amount::new(10));
        // Gas is back at the oldest rewound round's opening total, plus the
        // re-landed publish.
        assert_eq!(chain.gas_total(), opening_gas + GasSchedule::DEFAULT.publish);
        let stats = chain.reorg_stats();
        assert_eq!(stats.dropped_calls, 3);
        assert_eq!(stats.redelivered_calls, 0);
    }

    #[test]
    fn a_reorg_lands_a_window_round_at_its_round_start_state() {
        let mut chain = chain_fixture();
        chain.set_finality(FinalityParams { depth: 2, delta: 0 });
        let (a, b) = (
            chain.publish(Box::new(Counter::default())),
            chain.publish(Box::new(Counter::default())),
        );
        chain.call(PartyId(0), a, &CounterMsg::Bump, &dir(), &mut caches()).unwrap();
        chain.end_round(1);

        // Three calls to `a`, a call to `c` in the round that publishes it,
        // and a failed call to `b`.
        for _ in 0..3 {
            chain.call(PartyId(0), a, &CounterMsg::Bump, &dir(), &mut caches()).unwrap();
        }
        let c = chain.publish(Box::new(Counter::default()));
        chain.call(PartyId(0), c, &CounterMsg::Bump, &dir(), &mut caches()).unwrap();
        chain.call(PartyId(0), b, &CounterMsg::Fail, &dir(), &mut caches()).unwrap_err();
        assert_eq!(chain.window.back().unwrap().actions.len(), 5, "four calls and the publish");

        // A depth-1 reorg lands `a` at its round-start state and re-lands
        // `c` as published.
        assert_eq!(chain.reorg(1, ReorgPolicy::DropCalls, &dir(), &mut caches()), 1);
        assert_eq!(chain.contract_as::<Counter>(a).unwrap().count, 1);
        assert_eq!(chain.contract_as::<Counter>(b).unwrap().count, 0);
        assert_eq!(chain.contract_as::<Counter>(c).unwrap().count, 0);
        assert_eq!(chain.contract_count(), 3);
    }

    #[test]
    fn mint_inside_the_window_is_rewound_by_a_reorg() {
        let mut chain = chain_fixture();
        chain.mint(PartyId(0), AssetId(0), Amount::new(10));
        chain.set_finality(FinalityParams { depth: 2, delta: 0 });
        let id = chain.publish(Box::new(Counter::default()));
        chain.end_round(1);
        let gas = chain.gas_total();
        // A speculative mint, a deposit spending it, and a mint of an asset
        // the ledger has never held.
        chain.mint(PartyId(0), AssetId(0), Amount::new(5));
        chain
            .call(PartyId(0), id, &CounterMsg::Deposit(Amount::new(12)), &dir(), &mut caches())
            .unwrap();
        chain.mint(PartyId(1), AssetId(7), Amount::new(3));

        assert_eq!(chain.reorg(1, ReorgPolicy::DropCalls, &dir(), &mut caches()), 1);
        assert_eq!(chain.balance(AccountRef::Party(PartyId(0)), AssetId(0)), Amount::new(10));
        assert_eq!(chain.balance(AccountRef::Contract(id), AssetId(0)), Amount::ZERO);
        assert_eq!(chain.ledger().total_supply(AssetId(0)), Amount::new(10));
        assert_eq!(chain.ledger().total_supply(AssetId(7)), Amount::ZERO);
        assert_eq!(chain.contract_as::<Counter>(id).unwrap().deposited, Amount::ZERO);
        assert_eq!(chain.gas_total(), gas);
    }

    #[test]
    fn reorg_depth_is_clamped_to_the_speculative_window() {
        let mut chain = chain_fixture();
        chain.set_finality(FinalityParams { depth: 2, delta: 0 });
        chain.end_round(1);
        // Window holds 2 rounds; asking for 10 rewinds only those 2.
        let rewound = chain.reorg(10, ReorgPolicy::Redeliver, &dir(), &mut caches());
        assert_eq!(rewound, 2);
        // Without a window (instant finality) reorgs are no-ops.
        let mut instant = chain_fixture();
        assert_eq!(instant.reorg(3, ReorgPolicy::Redeliver, &dir(), &mut caches()), 0);
        assert_eq!(instant.reorg_stats(), ReorgStats::default());
    }

    #[test]
    fn redelivered_failures_are_counted_not_propagated() {
        let mut chain = chain_fixture();
        chain.set_finality(FinalityParams { depth: 2, delta: 0 });
        let id = chain.publish(Box::new(Counter::default()));
        // Round 0: a last-tick bump that is only valid while now <= 0.
        chain
            .call(PartyId(0), id, &CounterMsg::BumpBefore(Time(0)), &dir(), &mut caches())
            .unwrap();
        chain.end_round(1);
        assert_eq!(chain.contract_as::<Counter>(id).unwrap().count, 1);

        // The reorg rewinds both rounds and re-delivers at height 1, past
        // the deadline the call originally beat: the bump is lost, the
        // failure is absorbed into the stats rather than propagated.
        let rewound = chain.reorg(2, ReorgPolicy::Redeliver, &dir(), &mut caches());
        assert_eq!(rewound, 2);
        assert_eq!(chain.contract_as::<Counter>(id).unwrap().count, 0);
        let stats = chain.reorg_stats();
        assert_eq!(stats.rewound_calls, 1);
        assert_eq!(stats.redelivery_failures, 1);
        assert_eq!(stats.redelivered_calls, 0);

        // Failed calls are never recorded, so the reopened round only holds
        // the publish re-delivery, not the failed bump.
        let _ = chain.call(PartyId(0), id, &CounterMsg::Fail, &dir(), &mut caches());
        assert_eq!(chain.window.back().unwrap().actions.len(), 1);
    }

    #[test]
    fn snapshot_round_trips_the_speculative_split() {
        let mut chain = chain_fixture();
        chain.mint(PartyId(0), AssetId(0), Amount::new(10));
        chain.set_finality(FinalityParams { depth: 2, delta: 3 });
        let id = chain.publish(Box::new(Counter::default()));
        chain.end_round(1);
        chain.call(PartyId(0), id, &CounterMsg::Bump, &dir(), &mut caches()).unwrap();
        chain.reorg(1, ReorgPolicy::Redeliver, &dir(), &mut caches());

        let snap = chain.clone();
        chain.call(PartyId(0), id, &CounterMsg::Bump, &dir(), &mut caches()).unwrap();
        chain.end_round(1);
        chain.restore_from(&snap);

        assert_eq!(chain.finality(), FinalityParams { depth: 2, delta: 3 });
        assert_eq!(chain.reorg_stats().reorgs, 1);
        assert_eq!(chain.contract_as::<Counter>(id).unwrap().count, 1);
        assert_eq!(chain.window.len(), 2);
        assert_eq!(chain.height(), Time(1));
        // The restored window can still absorb a reorg.
        let rewound = chain.reorg(2, ReorgPolicy::Redeliver, &dir(), &mut caches());
        assert_eq!(rewound, 2);
        assert_eq!(chain.contract_as::<Counter>(id).unwrap().count, 1);
    }
}
