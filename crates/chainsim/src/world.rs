//! The multi-chain world: chains, assets, labels and the global clock.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use cryptosim::KeyDirectory;

use crate::amount::Amount;
use crate::caches::SimCaches;
use crate::chain::{Blockchain, FinalityParams, ReorgEvent};
use crate::contract::ContractMessage;
use crate::error::ChainError;
#[cfg(test)]
use crate::ids::ContractId;
use crate::ids::{AssetId, ChainId, ContractAddr, Label, PartyId};
use crate::time::{StepSchedule, Time};

/// A collection of blockchains that advance in lock-step.
///
/// The world also carries cross-cutting directories that model standard
/// assumptions of the paper:
///
/// * the [`KeyDirectory`] (every party's public key is known to all);
/// * an asset registry (named token classes);
/// * a contract label registry. When a party publishes a contract as a
///   protocol step, it registers the contract under an agreed [`Label`] (for
///   example `"swap/apricot-escrow"`); counterparties discover the contract
///   by looking the label up, which models "within Δ, Bob sees Alice's
///   escrow contract on the apricot blockchain".
///
/// Chains are stored densely, indexed by their sequentially assigned
/// [`ChainId`]s, and a world can be [`reset`](World::reset) between runs:
/// retired chains are kept as spare shells whose ledgers and contract
/// stores retain their allocations, which is what makes per-worker world
/// pooling in sweep engines nearly allocation-free.
///
/// # Examples
///
/// ```
/// use chainsim::{Amount, PartyId, World};
///
/// let mut world = World::new(1);
/// let apricot = world.add_chain("apricot");
/// let banana = world.add_chain("banana");
/// let apricot_token = world.register_asset("apricot-token");
/// world.chain_mut(apricot).mint(PartyId(0), apricot_token, Amount::new(100));
/// assert_ne!(apricot, banana);
/// assert_eq!(world.now().height(), 0);
/// ```
pub struct World {
    /// `chains[i]` is the chain with `ChainId(i)`.
    chains: Vec<Blockchain>,
    /// Retired chain shells kept for reuse across [`World::reset`] cycles.
    spare: Vec<Blockchain>,
    directory: KeyDirectory,
    labels: BTreeMap<Label, ContractAddr>,
    /// `asset_names[i]` is the registered name of `AssetId(i)`.
    asset_names: Vec<String>,
    delta_blocks: u64,
    started_at: Time,
    /// World rounds completed so far (one per [`World::advance_delta`]);
    /// the clock that [`ReorgEvent::at_round`] schedules against.
    rounds_elapsed: u64,
    /// Pending scheduled reorgs, fired (and removed) by
    /// [`World::advance_delta`] at the end of their round.
    pending_reorgs: Vec<ReorgEvent>,
    /// Per-world memo store (see [`SimCaches`]): survives [`World::reset`]
    /// and [`World::restore`], and is deliberately excluded from snapshots.
    caches: SimCaches,
    /// Version of the three registries (labels, assets, key directory),
    /// drawn from a process-global counter on every mutation. Two equal
    /// versions imply identical registry contents, which lets
    /// [`World::restore`] skip re-cloning registries when a world restores
    /// a snapshot of its own current registry state — the common case in
    /// sweeps, where every profile restores the same post-setup snapshot
    /// and runs leave the registries as setup built them.
    registry_version: u64,
}

/// The argument of [`World::with_trace`], which survives only as an alias
/// of [`World::new`]: chains keep no event log, so there is nothing left to
/// switch. Both go at the next change to the `perfbench` benchmark, which
/// still calls the alias.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceMode {
    /// The only mode.
    Off,
}

/// Process-global source of registry versions; see
/// [`World::registry_version`]. Starts at 1 so version 0 never aliases.
static REGISTRY_VERSIONS: AtomicU64 = AtomicU64::new(1);

fn next_registry_version() -> u64 {
    REGISTRY_VERSIONS.fetch_add(1, Ordering::Relaxed)
}

impl World {
    /// Creates an empty world whose synchrony bound Δ is `delta_blocks`.
    ///
    /// # Panics
    ///
    /// Panics if `delta_blocks` is zero.
    pub fn new(delta_blocks: u64) -> Self {
        assert!(delta_blocks > 0, "Δ must be at least one block");
        World {
            chains: Vec::new(),
            spare: Vec::new(),
            directory: KeyDirectory::new(),
            labels: BTreeMap::new(),
            asset_names: Vec::new(),
            delta_blocks,
            started_at: Time::ZERO,
            rounds_elapsed: 0,
            pending_reorgs: Vec::new(),
            caches: SimCaches::new(),
            registry_version: next_registry_version(),
        }
    }

    /// [`World::new`]; see [`TraceMode`].
    pub fn with_trace(delta_blocks: u64, _: TraceMode) -> Self {
        Self::new(delta_blocks)
    }

    /// Clears every chain, label, asset and key registration while keeping
    /// allocated storage, so the world can host a fresh run.
    ///
    /// Retired chains become spare shells that the next
    /// [`add_chain`](World::add_chain) calls recycle — their ledgers and
    /// contract stores keep their capacity.
    ///
    /// # Panics
    ///
    /// Panics if `delta_blocks` is zero.
    pub fn reset(&mut self, delta_blocks: u64) {
        assert!(delta_blocks > 0, "Δ must be at least one block");
        self.spare.append(&mut self.chains);
        self.directory.clear();
        self.labels.clear();
        self.asset_names.clear();
        self.registry_version = next_registry_version();
        self.delta_blocks = delta_blocks;
        self.started_at = Time::ZERO;
        self.rounds_elapsed = 0;
        self.pending_reorgs.clear();
    }

    /// The synchrony bound Δ in blocks.
    pub fn delta_blocks(&self) -> u64 {
        self.delta_blocks
    }

    /// Adds a new chain with the given name and a fresh native currency.
    pub fn add_chain(&mut self, name: impl AsRef<str>) -> ChainId {
        let name = name.as_ref();
        let id = ChainId(self.chains.len() as u32);
        let native = {
            let mut native_name = String::with_capacity(name.len() + 7);
            native_name.push_str(name);
            native_name.push_str("-native");
            self.register_asset(native_name)
        };
        let mut chain = match self.spare.pop() {
            Some(mut shell) => {
                shell.recycle(id, name, native);
                shell
            }
            None => Blockchain::new(id, name, native),
        };
        // Keep new chains height-aligned with existing ones.
        chain.advance_blocks(self.now().height());
        self.chains.push(chain);
        id
    }

    /// Registers a new named asset class and returns its id.
    pub fn register_asset(&mut self, name: impl Into<String>) -> AssetId {
        let id = AssetId(self.asset_names.len() as u32);
        self.asset_names.push(name.into());
        self.registry_version = next_registry_version();
        id
    }

    /// Returns the registered name of an asset, if any.
    pub fn asset_name(&self, asset: AssetId) -> Option<&str> {
        self.asset_names.get(asset.0 as usize).map(String::as_str)
    }

    /// Returns the chain with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if the chain does not exist; chains are created by the test or
    /// protocol setup code that also holds their ids.
    pub fn chain(&self, id: ChainId) -> &Blockchain {
        self.chains.get(id.0 as usize).unwrap_or_else(|| panic!("no such chain {id}"))
    }

    /// Mutable access to the chain with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if the chain does not exist.
    pub fn chain_mut(&mut self, id: ChainId) -> &mut Blockchain {
        self.chains.get_mut(id.0 as usize).unwrap_or_else(|| panic!("no such chain {id}"))
    }

    /// Fallible chain lookup.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::NoSuchChain`] if the chain does not exist.
    pub fn try_chain(&self, id: ChainId) -> Result<&Blockchain, ChainError> {
        self.chains.get(id.0 as usize).ok_or(ChainError::NoSuchChain { chain: id })
    }

    /// Iterates over all chains.
    pub fn chains(&self) -> impl Iterator<Item = &Blockchain> {
        self.chains.iter()
    }

    /// The number of chains in the world.
    pub fn chain_count(&self) -> usize {
        self.chains.len()
    }

    /// Read access to the public-key directory.
    pub fn directory(&self) -> &KeyDirectory {
        &self.directory
    }

    /// Mutable access to the public-key directory (used during setup).
    pub fn directory_mut(&mut self) -> &mut KeyDirectory {
        self.registry_version = next_registry_version();
        &mut self.directory
    }

    /// The current global time (all chains share the same height).
    pub fn now(&self) -> Time {
        self.chains.first().map(Blockchain::height).unwrap_or(Time::ZERO)
    }

    /// A [`StepSchedule`] anchored at the protocol start time.
    pub fn schedule(&self) -> StepSchedule {
        StepSchedule::new(self.started_at, self.delta_blocks)
    }

    /// Marks the current time as the protocol start for timeout computation.
    pub fn mark_protocol_start(&mut self) {
        self.started_at = self.now();
    }

    /// Ends the current round: fires any reorg scheduled for it, then
    /// advances every chain by its per-round block count — the world Δ, or
    /// the chain's own [`FinalityParams::delta`] when one is set (the
    /// heterogeneous-Δ case, where a fast chain mines more blocks per round
    /// than a slow one).
    pub fn advance_delta(&mut self) {
        let round = self.rounds_elapsed;
        if !self.pending_reorgs.is_empty() {
            let mut i = 0;
            while i < self.pending_reorgs.len() {
                if self.pending_reorgs[i].at_round == round {
                    // `remove` keeps the schedule in insertion order, so
                    // same-round events always fire in the order scheduled.
                    let event = self.pending_reorgs.remove(i);
                    let World { chains, directory, caches, .. } = self;
                    if let Some(chain) = chains.get_mut(event.chain.0 as usize) {
                        chain.reorg(event.depth, event.policy, directory, caches);
                    }
                } else {
                    i += 1;
                }
            }
        }
        for chain in &mut self.chains {
            let per_chain = chain.finality().delta;
            let blocks = if per_chain == 0 { self.delta_blocks } else { per_chain };
            chain.end_round(blocks);
        }
        self.rounds_elapsed += 1;
    }

    /// Advances every chain by an arbitrary number of blocks.
    ///
    /// This is a raw clock jump used by tests and deadline-alignment code:
    /// it does not close a round, so scheduled reorgs do not fire and
    /// speculative windows do not roll forward.
    pub fn advance_blocks(&mut self, blocks: u64) {
        for chain in &mut self.chains {
            chain.advance_blocks(blocks);
        }
    }

    /// Closes `rounds` rounds in which nothing happens, exactly as that
    /// many [`World::advance_delta`] calls with no action in between would:
    /// heights and [`World::rounds_elapsed`] advance together. It does so
    /// only where an empty round is a pure clock tick — no reorg is
    /// scheduled, and every chain runs at the world Δ with no finality
    /// window — and returns whether it did; otherwise the world is left
    /// untouched and the rounds must be run one by one.
    pub fn skip_empty_rounds(&mut self, rounds: u64) -> bool {
        let delta = self.delta_blocks;
        let ticks_only = self.pending_reorgs.is_empty()
            && self.chains.iter().all(|chain| {
                let FinalityParams { depth, delta: own } = chain.finality();
                depth == 0 && (own == 0 || own == delta)
            });
        if ticks_only {
            self.advance_blocks(rounds * delta);
            self.rounds_elapsed += rounds;
        }
        ticks_only
    }

    /// World rounds completed so far (one per [`World::advance_delta`]).
    pub fn rounds_elapsed(&self) -> u64 {
        self.rounds_elapsed
    }

    /// Sets a chain's finality/synchrony parameters; see [`FinalityParams`].
    ///
    /// # Panics
    ///
    /// Panics if the chain does not exist.
    pub fn set_finality(&mut self, chain: ChainId, params: FinalityParams) {
        self.chain_mut(chain).set_finality(params);
    }

    /// Schedules a deterministic reorg; see [`ReorgEvent`]. Events whose
    /// round already passed, or whose chain has no speculative window, are
    /// silently inert.
    pub fn schedule_reorg(&mut self, event: ReorgEvent) {
        self.pending_reorgs.push(event);
    }

    /// Publishes `contract` on `chain` under `label` and returns its address.
    ///
    /// # Panics
    ///
    /// Panics if the chain does not exist or the label is already taken
    /// (labels are agreed protocol constants, so a collision is a bug).
    pub fn publish_labeled(
        &mut self,
        chain: ChainId,
        publisher: PartyId,
        label: impl Into<Label>,
        contract: Box<dyn crate::Contract>,
    ) -> ContractAddr {
        let label = label.into();
        assert!(!self.labels.contains_key(&label), "contract label \"{label}\" already registered");
        let id = self.chain_mut(chain).publish(publisher, contract);
        let addr = ContractAddr::new(chain, id);
        self.labels.insert(label, addr);
        self.registry_version = next_registry_version();
        addr
    }

    /// Looks up a contract address by its agreed label.
    pub fn lookup(&self, label: impl Into<Label>) -> Option<ContractAddr> {
        self.labels.get(&label.into()).copied()
    }

    /// Calls the contract at `addr` with a typed message.
    ///
    /// # Errors
    ///
    /// Returns chain and contract errors; see [`Blockchain::call`].
    pub fn call(
        &mut self,
        caller: PartyId,
        addr: ContractAddr,
        msg: &dyn ContractMessage,
    ) -> Result<(), ChainError> {
        let World { chains, directory, caches, .. } = self;
        let chain = chains
            .get_mut(addr.chain.0 as usize)
            .ok_or(ChainError::NoSuchChain { chain: addr.chain })?;
        chain.call(caller, addr.contract, msg, directory, caches)
    }

    /// The world's memoisation store (see [`SimCaches`]).
    pub fn caches(&mut self) -> &mut SimCaches {
        &mut self.caches
    }

    /// Captures the complete observable state of the world — every live
    /// chain's ledger, contract store, gas meter and clock, plus the label,
    /// asset and key registries — as a [`WorldSnapshot`].
    ///
    /// Retired spare shells (chains recycled by [`World::reset`]) hold no
    /// balances and are **not** captured: a snapshot's size is proportional
    /// to the live state only, no matter how many runs the world has pooled.
    /// The [`SimCaches`] memo store is also excluded — it memoises pure
    /// computations and is shared across runs by design.
    pub fn snapshot(&self) -> WorldSnapshot {
        WorldSnapshot {
            chains: self.chains.clone(),
            directory: self.directory.clone(),
            labels: self.labels.clone(),
            asset_names: self.asset_names.clone(),
            delta_blocks: self.delta_blocks,
            started_at: self.started_at,
            rounds_elapsed: self.rounds_elapsed,
            pending_reorgs: self.pending_reorgs.clone(),
            registry_version: self.registry_version,
        }
    }

    /// Restores the world to a previously captured [`WorldSnapshot`].
    ///
    /// After the call the world's observable state (chains, ledgers,
    /// contracts, gas meters, registries, clock) is identical to the
    /// state at [`World::snapshot`] time; a run resumed from the restored
    /// world is indistinguishable from one that replayed every step since.
    /// Restoring reuses the world's existing chain shells and buffer
    /// allocations where possible (surplus live chains are retired to the
    /// spare pool, missing ones are recycled from it), so restoring in a
    /// loop — how the sweep engines start every profile — allocates little
    /// beyond fresh contract boxes. The same snapshot can be restored any
    /// number of times, into any world.
    pub fn restore(&mut self, snap: &WorldSnapshot) {
        // Shrink or grow the live chain vector to match, recycling shells.
        while self.chains.len() > snap.chains.len() {
            let retired = self.chains.pop().expect("len checked");
            self.spare.push(retired);
        }
        while self.chains.len() < snap.chains.len() {
            let shell =
                self.spare.pop().unwrap_or_else(|| Blockchain::new(ChainId(0), "", AssetId(0)));
            self.chains.push(shell);
        }
        for (chain, captured) in self.chains.iter_mut().zip(&snap.chains) {
            chain.restore_from(captured);
        }
        // Registries only need re-cloning when the world's current ones
        // differ from the snapshot's (equal versions imply equal contents;
        // versions are process-globally unique per mutation).
        if self.registry_version != snap.registry_version {
            self.directory.clone_from(&snap.directory);
            self.labels.clone_from(&snap.labels);
            self.asset_names.clone_from(&snap.asset_names);
            self.registry_version = snap.registry_version;
        }
        self.delta_blocks = snap.delta_blocks;
        self.started_at = snap.started_at;
        self.rounds_elapsed = snap.rounds_elapsed;
        self.pending_reorgs.clone_from(&snap.pending_reorgs);
    }

    /// Total balance of `party` in `asset` summed over every chain.
    pub fn party_balance(&self, party: PartyId, asset: AssetId) -> Amount {
        self.chains.iter().map(|chain| chain.balance(crate::AccountRef::Party(party), asset)).sum()
    }
}

/// A captured [`World`] state; see [`World::snapshot`].
///
/// Snapshots are plain values: they borrow nothing from the world they came
/// from, can be kept in per-worker caches, and can be restored repeatedly
/// (each [`World::restore`] produces the identical state). Sweep engines use
/// them to execute a shared compliant prefix once and fan many deviation
/// scenarios out from the same mid-run state.
pub struct WorldSnapshot {
    chains: Vec<Blockchain>,
    directory: KeyDirectory,
    labels: BTreeMap<Label, ContractAddr>,
    asset_names: Vec<String>,
    delta_blocks: u64,
    started_at: Time,
    rounds_elapsed: u64,
    pending_reorgs: Vec<ReorgEvent>,
    registry_version: u64,
}

impl WorldSnapshot {
    /// The number of live chains captured in this snapshot.
    pub fn chain_count(&self) -> usize {
        self.chains.len()
    }
}

impl fmt::Debug for WorldSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorldSnapshot")
            .field("chains", &self.chains.len())
            .field("labels", &self.labels.len())
            .field("delta_blocks", &self.delta_blocks)
            .finish()
    }
}

impl fmt::Debug for World {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("World")
            .field("chains", &self.chains.len())
            .field("now", &self.now())
            .field("delta_blocks", &self.delta_blocks)
            .field("labels", &self.labels.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::{CallEnv, Contract};
    use crate::error::ContractError;
    use std::any::Any;

    #[derive(Clone, Debug, Default)]
    struct Noop;

    impl Contract for Noop {
        fn type_name(&self) -> &'static str {
            "Noop"
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

    #[test]
    fn chains_advance_in_lockstep() {
        let mut world = World::new(3);
        let a = world.add_chain("a");
        let b = world.add_chain("b");
        world.advance_delta();
        world.advance_delta();
        assert_eq!(world.chain(a).height(), Time(6));
        assert_eq!(world.chain(b).height(), Time(6));
        assert_eq!(world.now(), Time(6));
    }

    #[test]
    fn late_added_chain_is_height_aligned() {
        let mut world = World::new(2);
        let _a = world.add_chain("a");
        world.advance_delta();
        let b = world.add_chain("b");
        assert_eq!(world.chain(b).height(), Time(2));
    }

    #[test]
    fn asset_registry() {
        let mut world = World::new(1);
        let chain = world.add_chain("apricot");
        let token = world.register_asset("apricot-token");
        assert_eq!(world.asset_name(token), Some("apricot-token"));
        assert_eq!(world.asset_name(world.chain(chain).native_asset()), Some("apricot-native"));
        assert_eq!(world.asset_name(AssetId(999)), None);
    }

    #[test]
    fn labels_resolve_to_published_contracts() {
        let mut world = World::new(1);
        let chain = world.add_chain("apricot");
        let addr = world.publish_labeled(chain, PartyId(0), "swap/escrow", Box::new(Noop));
        assert_eq!(world.lookup("swap/escrow"), Some(addr));
        assert_eq!(world.lookup("missing"), None);
        world.call(PartyId(1), addr, &()).unwrap();
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_labels_panic() {
        let mut world = World::new(1);
        let chain = world.add_chain("apricot");
        world.publish_labeled(chain, PartyId(0), "dup", Box::new(Noop));
        world.publish_labeled(chain, PartyId(0), "dup", Box::new(Noop));
    }

    #[test]
    fn call_on_missing_chain_errors() {
        let mut world = World::new(1);
        let err =
            world.call(PartyId(0), ContractAddr::new(ChainId(7), ContractId(0)), &()).unwrap_err();
        assert!(matches!(err, ChainError::NoSuchChain { .. }));
        assert!(world.try_chain(ChainId(7)).is_err());
    }

    #[test]
    fn party_balance_sums_across_chains() {
        let mut world = World::new(1);
        let a = world.add_chain("a");
        let b = world.add_chain("b");
        let coin = world.register_asset("coin");
        world.chain_mut(a).mint(PartyId(0), coin, Amount::new(3));
        world.chain_mut(b).mint(PartyId(0), coin, Amount::new(4));
        assert_eq!(world.party_balance(PartyId(0), coin), Amount::new(7));
    }

    #[test]
    fn schedule_tracks_protocol_start() {
        let mut world = World::new(5);
        let _ = world.add_chain("a");
        world.advance_delta();
        world.mark_protocol_start();
        assert_eq!(world.schedule().start(), Time(5));
        assert_eq!(world.schedule().deadline(2), Time(15));
    }

    #[test]
    #[should_panic(expected = "no such chain")]
    fn chain_accessor_panics_on_missing() {
        let world = World::new(1);
        let _ = world.chain(ChainId(0));
    }

    #[test]
    fn debug_and_counts() {
        let mut world = World::new(1);
        world.add_chain("a");
        assert_eq!(world.chain_count(), 1);
        assert_eq!(world.chains().count(), 1);
        assert!(format!("{world:?}").contains("World"));
        assert!(world.directory().is_empty());
    }

    #[test]
    fn reset_recycles_chains_and_clears_registries() {
        let mut world = World::new(2);
        let a = world.add_chain("a");
        let coin = world.register_asset("coin");
        world.chain_mut(a).mint(PartyId(0), coin, Amount::new(5));
        world.publish_labeled(a, PartyId(0), "escrow", Box::new(Noop));
        world.advance_delta();
        world.mark_protocol_start();

        world.reset(3);
        assert_eq!(world.chain_count(), 0);
        assert_eq!(world.now(), Time::ZERO);
        assert_eq!(world.delta_blocks(), 3);
        assert_eq!(world.lookup("escrow"), None);
        assert_eq!(world.schedule().start(), Time::ZERO);
        assert!(world.directory().is_empty());

        // Replaying the same setup yields the same ids and a clean slate.
        let a2 = world.add_chain("a");
        assert_eq!(a2, a);
        let coin2 = world.register_asset("coin");
        assert_eq!(coin2, coin);
        assert_eq!(world.party_balance(PartyId(0), coin2), Amount::ZERO);
        assert_eq!(world.asset_name(coin2), Some("coin"));
        // The recycled chain starts its contract ids over.
        let addr = world.publish_labeled(a2, PartyId(0), "escrow", Box::new(Noop));
        assert_eq!(addr.contract, ContractId(0));
    }

    #[test]
    fn scheduled_reorg_fires_at_its_round_and_drops_calls() {
        use crate::chain::ReorgPolicy;

        #[derive(Clone, Debug, Default)]
        struct Sink;
        impl Contract for Sink {
            fn type_name(&self) -> &'static str {
                "Sink"
            }
            fn clone_box(&self) -> Box<dyn Contract> {
                Box::new(self.clone())
            }
            fn handle(&mut self, env: &mut CallEnv<'_>, _: &dyn Any) -> Result<(), ContractError> {
                env.debit_caller(AssetId(0), Amount::new(1))?;
                Ok(())
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
        }

        let mut world = World::new(1);
        let a = world.add_chain("a");
        world.chain_mut(a).mint(PartyId(0), AssetId(0), Amount::new(5));
        world.set_finality(a, FinalityParams { depth: 2, delta: 0 });
        let addr = world.publish_labeled(a, PartyId(0), "sink", Box::new(Sink));
        world.schedule_reorg(ReorgEvent {
            chain: a,
            at_round: 1,
            depth: 1,
            policy: ReorgPolicy::DropCalls,
        });

        world.advance_delta(); // round 0: nothing fires
        world.call(PartyId(0), addr, &()).unwrap();
        world.advance_delta(); // round 1: the round's deposit is dropped
        assert_eq!(world.rounds_elapsed(), 2);
        assert_eq!(world.party_balance(PartyId(0), AssetId(0)), Amount::new(5));
        assert_eq!(world.chain(a).reorg_stats().dropped_calls, 1);

        // The event fired exactly once; later rounds are unaffected.
        world.call(PartyId(0), addr, &()).unwrap();
        world.advance_delta();
        assert_eq!(world.party_balance(PartyId(0), AssetId(0)), Amount::new(4));
    }

    #[test]
    fn skipping_empty_rounds_equals_advance_delta_or_skips_nothing() {
        use crate::chain::ReorgPolicy;
        let build = || {
            let mut world = World::new(2);
            world.add_chain("a");
            world.add_chain("b");
            world.advance_delta();
            world
        };
        let (mut skipped, mut stepped) = (build(), build());
        // A chain that names the world Δ as its own still ticks in step.
        skipped.set_finality(ChainId(1), FinalityParams { depth: 0, delta: 2 });
        stepped.set_finality(ChainId(1), FinalityParams { depth: 0, delta: 2 });
        assert!(skipped.skip_empty_rounds(5));
        for _ in 0..5 {
            stepped.advance_delta();
        }
        for chain in [ChainId(0), ChainId(1)] {
            assert_eq!(skipped.chain(chain).height(), stepped.chain(chain).height());
        }
        assert_eq!(skipped.now(), Time(12));
        assert_eq!(skipped.rounds_elapsed(), stepped.rounds_elapsed());

        // An empty round that is more than a clock tick is not skipped.
        let overlays: [fn(&mut World); 3] = [
            |world| {
                world.schedule_reorg(ReorgEvent {
                    chain: ChainId(0),
                    at_round: 9,
                    depth: 1,
                    policy: ReorgPolicy::Redeliver,
                })
            },
            |world| world.set_finality(ChainId(1), FinalityParams { depth: 2, delta: 0 }),
            |world| world.set_finality(ChainId(1), FinalityParams { depth: 0, delta: 3 }),
        ];
        for overlay in overlays {
            let mut world = build();
            overlay(&mut world);
            assert!(!world.skip_empty_rounds(5));
            assert_eq!(world.now(), Time(2));
            assert_eq!(world.rounds_elapsed(), 1);
        }
    }

    #[test]
    fn heterogeneous_delta_chains_advance_at_their_own_cadence() {
        let mut world = World::new(2);
        let fast = world.add_chain("fast");
        let slow = world.add_chain("slow");
        world.set_finality(fast, FinalityParams { depth: 0, delta: 5 });
        world.advance_delta();
        world.advance_delta();
        assert_eq!(world.chain(fast).height(), Time(10));
        assert_eq!(world.chain(slow).height(), Time(4));
    }

    #[test]
    fn snapshot_restores_the_speculative_split_and_schedule() {
        use crate::chain::ReorgPolicy;
        let mut world = World::new(1);
        let a = world.add_chain("a");
        world.set_finality(a, FinalityParams { depth: 2, delta: 0 });
        let addr = world.publish_labeled(a, PartyId(0), "noop", Box::new(Noop));
        world.schedule_reorg(ReorgEvent {
            chain: a,
            at_round: 3,
            depth: 2,
            policy: ReorgPolicy::Redeliver,
        });
        world.advance_delta();
        world.call(PartyId(0), addr, &()).unwrap();

        let snap = world.snapshot();
        world.call(PartyId(0), addr, &()).unwrap();
        world.advance_delta();
        world.advance_delta();
        world.advance_delta(); // fires the scheduled reorg
        assert!(world.chain(a).reorg_stats().reorgs > 0);

        world.restore(&snap);
        // The restored world is back before the reorg, with the schedule and
        // round clock intact: replaying the rounds fires it again.
        assert_eq!(world.rounds_elapsed(), 1);
        assert_eq!(world.chain(a).reorg_stats().reorgs, 0);
        world.advance_delta();
        world.advance_delta();
        world.advance_delta();
        assert_eq!(world.chain(a).reorg_stats().reorgs, 1);
    }
}
