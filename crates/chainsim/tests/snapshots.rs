//! Edge-case coverage for `World::snapshot` / `World::restore`: the
//! primitive the model checker's sweeps start every profile from.
//!
//! The determinism contract: a restored world is indistinguishable from the
//! world at snapshot time — after failed contract calls, and under repeated
//! restores from the same snapshot.

use std::any::Any;

use chainsim::{
    AccountRef, Amount, AssetId, CallEnv, ChainError, Contract, ContractError, GasSchedule,
    PartyId, Time, World,
};

/// A contract holding a deposit that can also be asked to fail.
#[derive(Clone, Debug, Default)]
struct Vault {
    total: Amount,
    calls: u64,
}

#[derive(Clone, Debug)]
enum VaultMsg {
    Deposit(Amount),
    /// Debits the caller, charges a note, and *then* fails: a multi-op call
    /// whose partial effects the transactional frame must roll back.
    DepositThenFail(Amount),
    Fail,
}

impl Contract for Vault {
    fn type_name(&self) -> &'static str {
        "Vault"
    }
    fn clone_box(&self) -> Box<dyn Contract> {
        Box::new(self.clone())
    }
    fn handle(&mut self, env: &mut CallEnv<'_>, msg: &dyn Any) -> Result<(), ContractError> {
        let msg = msg.downcast_ref::<VaultMsg>().ok_or(ContractError::UnsupportedMessage)?;
        match msg {
            VaultMsg::Deposit(amount) => {
                env.debit_caller(AssetId(0), *amount)?;
                self.total += *amount;
                self.calls += 1;
                Ok(())
            }
            VaultMsg::DepositThenFail(amount) => {
                env.debit_caller(AssetId(0), *amount)?;
                env.charge_note();
                Err(ContractError::invalid_state("asked to fail after depositing"))
            }
            VaultMsg::Fail => Err(ContractError::invalid_state("asked to fail")),
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

fn build_world() -> (World, chainsim::ContractAddr) {
    let mut world = World::new(1);
    let chain = world.add_chain("apricot");
    world.chain_mut(chain).mint(PartyId(0), AssetId(0), Amount::new(100));
    let addr = world.publish(chain, Box::new(Vault::default()));
    world.call(PartyId(0), addr, &VaultMsg::Deposit(Amount::new(30))).unwrap();
    world.advance_delta();
    (world, addr)
}

fn observable_state(
    world: &World,
    addr: chainsim::ContractAddr,
) -> (Amount, Amount, u64, Time, u64) {
    let chain = world.chain(addr.chain);
    let vault = chain.contract_as::<Vault>(addr.contract).unwrap();
    (
        chain.balance(AccountRef::Party(PartyId(0)), AssetId(0)),
        chain.balance(AccountRef::Contract(addr.contract), AssetId(0)),
        vault.calls,
        world.now(),
        chain.gas_total(),
    )
}

#[test]
fn restore_after_a_failed_call_discards_its_side_effects() {
    let (mut world, addr) = build_world();
    let snap = world.snapshot();

    // A failing call is rolled back transactionally, but it still burns gas
    // before erroring.
    let err = world.call(PartyId(0), addr, &VaultMsg::Fail).unwrap_err();
    assert!(matches!(err, ChainError::ContractFailed { .. }));
    assert_ne!(observable_state(&world, addr), observable_state_of_snapshot(&snap, addr));

    world.restore(&snap);
    assert_eq!(observable_state(&world, addr), observable_state_of_snapshot(&snap, addr));

    // The restored world is fully functional: the same call fails the same
    // way, and a valid call succeeds.
    let err = world.call(PartyId(0), addr, &VaultMsg::Fail).unwrap_err();
    assert!(matches!(err, ChainError::ContractFailed { .. }));
    world.restore(&snap);
    world.call(PartyId(0), addr, &VaultMsg::Deposit(Amount::new(5))).unwrap();
    let chain = world.chain(addr.chain);
    assert_eq!(chain.balance(AccountRef::Contract(addr.contract), AssetId(0)), Amount::new(35));
}

/// Renders a snapshot's observable state by restoring it into a throwaway
/// world (snapshots are opaque by design).
fn observable_state_of_snapshot(
    snap: &chainsim::WorldSnapshot,
    addr: chainsim::ContractAddr,
) -> (Amount, Amount, u64, Time, u64) {
    let mut probe = World::new(1);
    probe.restore(snap);
    observable_state(&probe, addr)
}

#[test]
fn double_restore_from_the_same_snapshot_is_idempotent() {
    let (mut world, addr) = build_world();
    let snap = world.snapshot();

    world.call(PartyId(0), addr, &VaultMsg::Deposit(Amount::new(7))).unwrap();
    world.restore(&snap);
    let first = observable_state(&world, addr);

    world.call(PartyId(0), addr, &VaultMsg::Deposit(Amount::new(22))).unwrap();
    world.advance_delta();
    world.advance_delta();
    world.restore(&snap);
    let second = observable_state(&world, addr);

    assert_eq!(first, second, "every restore reproduces the same state");
    assert_eq!(first, observable_state_of_snapshot(&snap, addr));
}

#[test]
fn snapshots_skip_retired_spare_shells() {
    // Run a two-chain scenario, reset (retiring both chains), then build a
    // one-chain scenario: the snapshot must capture the single live chain
    // only, not the recycled shells from earlier runs.
    let mut world = World::new(1);
    let a = world.add_chain("a");
    world.add_chain("b");
    world.chain_mut(a).mint(PartyId(0), AssetId(0), Amount::new(50));

    world.reset(1);
    let c = world.add_chain("c");
    world.chain_mut(c).mint(PartyId(1), AssetId(0), Amount::new(9));
    let snap = world.snapshot();
    assert_eq!(snap.chain_count(), 1, "spare shells hold no balances and are not captured");

    // Restoring into a world with *more* live chains retires the surplus.
    let mut other = World::new(1);
    other.add_chain("x");
    other.add_chain("y");
    other.add_chain("z");
    other.restore(&snap);
    assert_eq!(other.chain_count(), 1);
    assert_eq!(other.party_balance(PartyId(1), AssetId(0)), Amount::new(9));
    // The retired shells are recycled by later add_chain calls.
    let recycled = other.add_chain("w");
    assert_eq!(recycled.0, 1);
}

#[test]
fn failed_calls_charge_gas_but_leave_zero_residue() {
    // Pin of the transactional-call contract: a multi-op call that debits
    // the caller, charges a note and then fails must charge gas for the work
    // attempted while leaving ledger and contract state untouched.
    let (mut world, addr) = build_world();
    let chain = world.chain(addr.chain);
    let schedule = GasSchedule::DEFAULT;
    let gas_before = chain.gas_total();
    let party_before = chain.balance(AccountRef::Party(PartyId(0)), AssetId(0));
    let vault_before = chain.balance(AccountRef::Contract(addr.contract), AssetId(0));
    let calls_before = chain.contract_as::<Vault>(addr.contract).unwrap().calls;

    let err =
        world.call(PartyId(0), addr, &VaultMsg::DepositThenFail(Amount::new(40))).unwrap_err();
    assert!(matches!(err, ChainError::ContractFailed { .. }));

    let chain = world.chain(addr.chain);
    // Gas is charged for everything the call attempted: dispatch, the
    // rolled-back transfer, and the note.
    assert_eq!(
        chain.gas_total() - gas_before,
        schedule.call_base + schedule.ledger_op + schedule.note,
        "failed calls still pay for the work attempted"
    );
    // ...but zero residue remains.
    assert_eq!(chain.balance(AccountRef::Party(PartyId(0)), AssetId(0)), party_before);
    assert_eq!(chain.balance(AccountRef::Contract(addr.contract), AssetId(0)), vault_before);
    assert_eq!(chain.contract_as::<Vault>(addr.contract).unwrap().calls, calls_before);
    // Conservation: total supply of the asset is untouched.
    assert_eq!(chain.ledger().total_supply(AssetId(0)), Amount::new(100));
}

#[test]
fn restore_rebuilds_asset_registry_and_contract_store() {
    let (mut world, addr) = build_world();
    let snap = world.snapshot();

    world.reset(3);
    assert_eq!(world.asset_name(AssetId(0)), None);

    world.restore(&snap);
    assert_eq!(world.delta_blocks(), 1);
    assert_eq!(world.asset_name(AssetId(0)), Some("apricot-native"));
    let vault = world.chain(addr.chain).contract_as::<Vault>(addr.contract).unwrap();
    assert_eq!(vault.total, Amount::new(30));
    // Publishing after a restore continues from the snapshot's contract ids.
    let next = world.publish(addr.chain, Box::new(Vault::default()));
    assert_eq!(next.contract.0, addr.contract.0 + 1);
}

#[test]
fn restore_mutate_restore_reproduces_every_ledger_entry() {
    // `World::restore` copies each ledger into the chain's existing tables.
    // A mutation between two restores — a new account, a new asset that
    // widens every row, a contract balance — must leave no trace in the
    // second restore's entries.
    let (mut world, addr) = build_world();
    let chain = addr.chain;
    let entries = |world: &World| world.chain(chain).ledger().iter().collect::<Vec<_>>();
    let snap = world.snapshot();
    world.restore(&snap);
    let first = entries(&world);
    assert!(!first.is_empty());

    let token = world.register_asset("late-token");
    world.chain_mut(chain).mint(PartyId(9), token, Amount::new(11));
    world.chain_mut(chain).mint(PartyId(0), AssetId(0), Amount::new(5));
    world.call(PartyId(0), addr, &VaultMsg::Deposit(Amount::new(3))).unwrap();
    assert_ne!(entries(&world), first);

    world.restore(&snap);
    assert_eq!(entries(&world), first, "restore -> mutate -> restore diverged");
    assert_eq!(world.chain(chain).ledger().assets(), vec![AssetId(0)]);
}
