//! The synchronous scheduler that drives actors (parties) against the world.

use std::fmt;

use crate::contract::{Contract, ContractMessage};
use crate::ids::{ChainId, ContractAddr, Label, PartyId};
use crate::time::Time;
use crate::world::World;

/// An action a party may take during one synchronous round.
///
/// Labels are structured [`Label`] values, so emitting an action allocates
/// nothing beyond the boxed message or contract itself.
pub enum Action {
    /// Publish a contract on `chain`, registering it under `label` so that
    /// counterparties can discover it.
    Publish {
        /// The chain to publish on.
        chain: ChainId,
        /// The agreed discovery label.
        label: Label,
        /// The contract to publish.
        contract: Box<dyn Contract>,
    },
    /// Call the contract at `addr` with a typed message.
    Call {
        /// The contract address.
        addr: ContractAddr,
        /// The message to deliver.
        msg: Box<dyn ContractMessage>,
    },
}

impl Action {
    /// Convenience constructor for a call action.
    pub fn call(addr: ContractAddr, msg: impl ContractMessage) -> Self {
        Action::Call { addr, msg: Box::new(msg) }
    }

    /// Convenience constructor for a publish action.
    pub fn publish(chain: ChainId, label: impl Into<Label>, contract: Box<dyn Contract>) -> Self {
        Action::Publish { chain, label: label.into(), contract }
    }
}

impl fmt::Debug for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Publish { chain, label, contract } => f
                .debug_struct("Publish")
                .field("chain", chain)
                .field("label", label)
                .field("type", &contract.type_name())
                .finish(),
            Action::Call { addr, msg } => {
                f.debug_struct("Call").field("addr", addr).field("msg", msg).finish()
            }
        }
    }
}

/// A party participating in a protocol run.
///
/// In every synchronous round the scheduler calls [`Actor::step`] with a
/// read-only view of the world *as of the end of the previous round* — this
/// is exactly the paper's Δ-propagation assumption — and collects the
/// actions the party wants to take. Actions from all parties are then
/// applied in party-id order and the clock advances by Δ.
pub trait Actor {
    /// The party this actor controls.
    fn party(&self) -> PartyId;

    /// Observes the world and emits the actions for this round.
    fn step(&mut self, world: &World, actions: &mut Vec<Action>);

    /// Returns `true` once the actor has nothing further to do.
    ///
    /// The scheduler stops early when all actors are done.
    fn done(&self) -> bool {
        false
    }

    /// A *pure-wait guarantee* from the most recent [`Actor::step`]:
    /// `Some(t)` promises that, on a world that differs only by a clock
    /// strictly before `t`, stepping again emits nothing and changes
    /// nothing observable. The [`Scheduler`] skips rounds in which every
    /// actor pure-waits; the default, `None`, gives no guarantee.
    fn wake_hint(&self) -> Option<Time> {
        None
    }
}

impl<A: Actor + ?Sized> Actor for Box<A> {
    fn party(&self) -> PartyId {
        (**self).party()
    }
    fn step(&mut self, world: &World, actions: &mut Vec<Action>) {
        (**self).step(world, actions)
    }
    fn done(&self) -> bool {
        (**self).done()
    }
    fn wake_hint(&self) -> Option<Time> {
        (**self).wake_hint()
    }
}

/// What a run of the [`Scheduler`], or one [`run_round`], did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Synchronous rounds closed, skipped pure-wait rounds included.
    pub rounds: usize,
    /// Actions applied (publishes and calls).
    pub actions: usize,
    /// Applied actions that failed.
    pub failed: usize,
}

/// Drives a set of [`Actor`]s against a [`World`] in synchronous rounds.
#[derive(Debug, Clone, Copy)]
pub struct Scheduler {
    max_rounds: u64,
}

impl Scheduler {
    /// Creates a scheduler that runs at most `max_rounds` rounds.
    pub fn new(max_rounds: u64) -> Self {
        Scheduler { max_rounds }
    }

    /// Runs the actors until they are all done or `max_rounds` rounds have
    /// passed. Each round is one [`run_round`].
    ///
    /// After a round that applied no action, if every actor gives a
    /// [`Actor::wake_hint`], the rounds that start strictly before the
    /// earliest hint would only tick the clock. They are closed at once
    /// through [`World::skip_empty_rounds`], which declines when an empty
    /// round is more than a tick (a scheduled reorg, a finality window, a
    /// chain with its own Δ); then they run one by one. Either way the
    /// world and the tally equal those of running every round.
    pub fn run<A: Actor>(&self, world: &mut World, actors: &mut [A]) -> Tally {
        let mut tally = Tally::default();
        let (mut staged, mut batch) = (Vec::new(), Vec::new());
        while (tally.rounds as u64) < self.max_rounds && !actors.iter().all(Actor::done) {
            let round = round(world, actors, &mut staged, &mut batch);
            tally.rounds += 1;
            tally.actions += round.actions;
            tally.failed += round.failed;
            if round.actions == 0 && !actors.iter().all(Actor::done) {
                let budget = self.max_rounds - tally.rounds as u64;
                tally.rounds += skip_pure_waits(world, actors, budget) as usize;
            }
        }
        tally
    }
}

/// Skips the pure-wait rounds ahead: the rounds that start strictly before
/// the earliest wake hint, at most `budget` of them. Returns how many were
/// skipped; none when some actor gives no hint or the world declines.
fn skip_pure_waits<A: Actor>(world: &mut World, actors: &[A], budget: u64) -> u64 {
    let Some(wake) =
        actors.iter().try_fold(Time::MAX, |wake, actor| actor.wake_hint().map(|t| wake.min(t)))
    else {
        return 0;
    };
    let now = world.now();
    if wake <= now {
        return 0;
    }
    let rounds = ((wake - now - 1) / world.delta_blocks()).min(budget);
    if rounds > 0 && world.skip_empty_rounds(rounds) {
        rounds
    } else {
        0
    }
}

/// Executes exactly one synchronous round: every actor observes the world
/// as of the end of the previous round, all emitted actions are applied in
/// emission order (actors visited in slice order), and the world closes the
/// round ([`World::advance_delta`]). This is the round the [`Scheduler`]
/// runs.
pub fn run_round<A: Actor>(world: &mut World, actors: &mut [A]) -> Tally {
    round(world, actors, &mut Vec::new(), &mut Vec::new())
}

/// [`run_round`] with caller-owned staging buffers, so that a run's rounds
/// share one allocation.
fn round<A: Actor>(
    world: &mut World,
    actors: &mut [A],
    staged: &mut Vec<Action>,
    batch: &mut Vec<(PartyId, Action)>,
) -> Tally {
    for actor in actors.iter_mut() {
        staged.clear();
        actor.step(world, staged);
        let party = actor.party();
        batch.extend(staged.drain(..).map(|a| (party, a)));
    }
    let mut tally = Tally { rounds: 1, actions: batch.len(), failed: 0 };
    for (party, action) in batch.drain(..) {
        let applied = match action {
            Action::Publish { chain, label, contract } => {
                world.publish_labeled(chain, party, label, contract);
                Ok(())
            }
            Action::Call { addr, msg } => world.call(party, addr, msg.as_ref()),
        };
        tally.failed += usize::from(applied.is_err());
    }
    world.advance_delta();
    tally
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amount::Amount;
    use crate::contract::CallEnv;
    use crate::error::ContractError;
    use crate::ids::AssetId;
    use crate::ledger::AccountRef;
    use std::any::Any;

    /// Contract that accepts deposits of the chain's asset 0.
    #[derive(Clone, Debug, Default)]
    struct Pot {
        total: Amount,
    }

    #[derive(Clone, Debug)]
    struct DepositMsg(Amount);

    impl Contract for Pot {
        fn type_name(&self) -> &'static str {
            "Pot"
        }
        fn clone_box(&self) -> Box<dyn Contract> {
            Box::new(self.clone())
        }
        fn handle(&mut self, env: &mut CallEnv<'_>, msg: &dyn Any) -> Result<(), ContractError> {
            let msg = msg.downcast_ref::<DepositMsg>().ok_or(ContractError::UnsupportedMessage)?;
            env.debit_caller(AssetId(0), msg.0)?;
            self.total += msg.0;
            Ok(())
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    /// Alice publishes a pot in round 0; Bob deposits into it once he sees it.
    struct Publisher {
        party: PartyId,
        chain: ChainId,
        published: bool,
    }

    impl Actor for Publisher {
        fn party(&self) -> PartyId {
            self.party
        }
        fn step(&mut self, _world: &World, actions: &mut Vec<Action>) {
            if !self.published {
                actions.push(Action::publish(self.chain, "pot", Box::new(Pot::default())));
                self.published = true;
            }
        }
        fn done(&self) -> bool {
            self.published
        }
    }

    struct Depositor {
        party: PartyId,
        deposited: bool,
    }

    impl Actor for Depositor {
        fn party(&self) -> PartyId {
            self.party
        }
        fn step(&mut self, world: &World, actions: &mut Vec<Action>) {
            if self.deposited {
                return;
            }
            if let Some(addr) = world.lookup("pot") {
                actions.push(Action::call(addr, DepositMsg(Amount::new(5))));
                self.deposited = true;
            }
        }
        fn done(&self) -> bool {
            self.deposited
        }
    }

    #[test]
    fn scheduler_runs_publish_then_deposit() {
        let mut world = World::new(1);
        let chain = world.add_chain("apricot");
        world.chain_mut(chain).mint(PartyId(1), AssetId(0), Amount::new(10));

        let mut actors: Vec<Box<dyn Actor>> = vec![
            Box::new(Publisher { party: PartyId(0), chain, published: false }),
            Box::new(Depositor { party: PartyId(1), deposited: false }),
        ];
        let tally = Scheduler::new(10).run(&mut world, &mut actors);

        // Publication and deposit happen in the same round here because the
        // publisher is visited first; what matters is that all actions
        // succeeded and the pot holds the deposit.
        assert_eq!(tally.failed, 0);
        assert!(tally.rounds <= 10);
        let addr = world.lookup("pot").unwrap();
        assert_eq!(
            world.chain(chain).balance(AccountRef::Contract(addr.contract), AssetId(0)),
            Amount::new(5)
        );
        assert_eq!(
            world.chain(chain).contract_as::<Pot>(addr.contract).unwrap().total,
            Amount::new(5)
        );
    }

    #[test]
    fn scheduler_stops_when_all_actors_done() {
        let mut world = World::new(1);
        let chain = world.add_chain("apricot");
        let mut actors: Vec<Box<dyn Actor>> =
            vec![Box::new(Publisher { party: PartyId(0), chain, published: false })];
        let tally = Scheduler::new(100).run(&mut world, &mut actors);
        assert_eq!(tally, Tally { rounds: 1, actions: 1, failed: 0 });
        // Time advanced once (one round was executed).
        assert_eq!(world.now(), Time(1));
    }

    #[test]
    fn scheduler_respects_max_rounds() {
        struct Forever;
        impl Actor for Forever {
            fn party(&self) -> PartyId {
                PartyId(0)
            }
            fn step(&mut self, _: &World, _: &mut Vec<Action>) {}
        }
        let mut world = World::new(1);
        world.add_chain("a");
        let mut actors: Vec<Box<dyn Actor>> = vec![Box::new(Forever)];
        let tally = Scheduler::new(4).run(&mut world, &mut actors);
        assert_eq!(tally.rounds, 4);
        assert_eq!(world.now(), Time(4));
    }

    /// Pure-waits until `at`, then publishes a pot; counts its steps.
    struct Sleeper {
        at: Time,
        published: bool,
        steps: usize,
    }

    impl Actor for Sleeper {
        fn party(&self) -> PartyId {
            PartyId(0)
        }
        fn step(&mut self, world: &World, actions: &mut Vec<Action>) {
            self.steps += 1;
            if !self.published && world.now().has_reached(self.at) {
                actions.push(Action::publish(ChainId(0), "pot", Box::new(Pot::default())));
                self.published = true;
            }
        }
        fn done(&self) -> bool {
            self.published
        }
        fn wake_hint(&self) -> Option<Time> {
            (!self.published).then_some(self.at)
        }
    }

    #[test]
    fn skipped_pure_wait_rounds_end_where_running_them_does() {
        // Without a window the waits are skipped; with one they are run.
        for depth in [0, 1] {
            let build = || {
                let mut world = World::new(2);
                let chain = world.add_chain("a");
                world.set_finality(chain, crate::FinalityParams { depth, delta: 0 });
                world
            };
            let sleeper = || [Sleeper { at: Time(9), published: false, steps: 0 }];
            let mut scheduled = build();
            let mut skipping = sleeper();
            let tally = Scheduler::new(20).run(&mut scheduled, &mut skipping);
            let mut stepped = build();
            let mut stepping = sleeper();
            let mut rounds = 0;
            while !stepping[0].done() {
                run_round(&mut stepped, &mut stepping);
                rounds += 1;
            }
            assert_eq!(tally, Tally { rounds, actions: 1, failed: 0 }, "depth {depth}");
            assert_eq!(rounds, 6, "waits at heights 0–8, publishes at 10");
            // Without a window the rounds at heights 2, 4 and 6 are skipped.
            assert_eq!(skipping[0].steps, if depth == 0 { 3 } else { 6 });
            assert_eq!(scheduled.now(), stepped.now());
            assert_eq!(scheduled.rounds_elapsed(), stepped.rounds_elapsed());
        }
    }

    #[test]
    fn failed_calls_are_reported_not_fatal() {
        struct BadCaller {
            fired: bool,
        }
        impl Actor for BadCaller {
            fn party(&self) -> PartyId {
                PartyId(0)
            }
            fn step(&mut self, _world: &World, actions: &mut Vec<Action>) {
                if !self.fired {
                    actions.push(Action::call(
                        ContractAddr::new(ChainId(0), crate::ContractId(99)),
                        DepositMsg(Amount::new(1)),
                    ));
                    self.fired = true;
                }
            }
            fn done(&self) -> bool {
                self.fired
            }
        }
        let mut world = World::new(1);
        world.add_chain("a");
        let mut actors: Vec<Box<dyn Actor>> = vec![Box::new(BadCaller { fired: false })];
        let tally = Scheduler::new(5).run(&mut world, &mut actors);
        assert_eq!(tally, Tally { rounds: 1, actions: 1, failed: 1 });
    }

    #[test]
    fn action_debug_formats() {
        let publish = Action::publish(ChainId(0), "x", Box::new(Pot::default()));
        let call = Action::call(
            ContractAddr::new(ChainId(0), crate::ContractId(1)),
            DepositMsg(Amount::new(1)),
        );
        assert!(format!("{publish:?}").contains("Publish"));
        assert!(format!("{call:?}").contains("DepositMsg"));
    }
}
