//! The synchronous scheduler that drives actors (parties) against the world.

use std::fmt;

use crate::contract::{Contract, ContractMessage};
use crate::error::ChainError;
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
}

/// The result of applying a single action.
#[derive(Debug)]
pub struct ActionOutcome {
    /// The party that issued the action.
    pub party: PartyId,
    /// The result of applying it.
    pub result: Result<(), ChainError>,
}

impl ActionOutcome {
    /// Returns `true` if the action was applied successfully.
    pub fn is_ok(&self) -> bool {
        self.result.is_ok()
    }
}

/// The actions applied during one synchronous round.
#[derive(Debug)]
pub struct StepTrace {
    /// The time at which the round's actions were applied.
    pub time: Time,
    /// The outcomes, in application order.
    pub outcomes: Vec<ActionOutcome>,
}

/// A record of a complete protocol run.
#[derive(Debug, Default)]
pub struct RunReport {
    /// One trace per synchronous round, in order.
    pub steps: Vec<StepTrace>,
}

impl RunReport {
    /// The number of rounds executed.
    pub fn rounds(&self) -> usize {
        self.steps.len()
    }

    /// Iterates over all action outcomes across all rounds.
    pub fn outcomes(&self) -> impl Iterator<Item = &ActionOutcome> {
        self.steps.iter().flat_map(|s| s.outcomes.iter())
    }

    /// The number of successfully applied actions.
    pub fn successes(&self) -> usize {
        self.outcomes().filter(|o| o.is_ok()).count()
    }

    /// The failed actions (useful for asserting that compliant runs are clean).
    pub fn failures(&self) -> Vec<&ActionOutcome> {
        self.outcomes().filter(|o| !o.is_ok()).collect()
    }
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

    /// Runs the actors until they are all done or `max_rounds` is reached.
    ///
    /// Each round: every actor observes the same world snapshot, all emitted
    /// actions are applied in emission order (actors are visited in the
    /// order supplied, which protocol setup keeps sorted by party id), and
    /// the world advances by Δ.
    pub fn run(&self, world: &mut World, actors: &mut [Box<dyn Actor>]) -> RunReport {
        self.run_actors(world, actors)
    }

    /// [`Scheduler::run`] for any slice of concrete actors (avoiding the
    /// per-actor box). Semantics are identical: both drive [`run_round`].
    pub fn run_actors<A: Actor>(&self, world: &mut World, actors: &mut [A]) -> RunReport {
        let mut report = RunReport::default();
        let mut buffers = RoundBuffers::default();
        for _ in 0..self.max_rounds {
            if actors.iter().all(|a| a.done()) {
                break;
            }
            report.steps.push(run_round_with(world, actors, &mut buffers));
        }
        report
    }
}

/// Reusable staging buffers for [`run_round_with`]: most rounds emit no
/// actions, and the ones that do reuse one allocation across a whole run
/// instead of allocating per round.
#[derive(Debug, Default)]
pub struct RoundBuffers {
    staged: Vec<Action>,
    batch: Vec<(PartyId, Action)>,
}

/// Executes exactly one synchronous round: every actor observes the world
/// as of the end of the previous round, all emitted actions are applied in
/// emission order (actors visited in slice order), and the clock advances
/// by Δ.
///
/// This is the single round primitive behind [`Scheduler::run`] *and* the
/// protocol crates' checkpoint-and-resume runners; sharing it is what makes
/// a resumed run bit-for-bit identical to a replayed one.
pub fn run_round<A: Actor>(world: &mut World, actors: &mut [A]) -> StepTrace {
    run_round_with(world, actors, &mut RoundBuffers::default())
}

/// [`run_round`] with caller-owned staging buffers (see [`RoundBuffers`]).
pub fn run_round_with<A: Actor>(
    world: &mut World,
    actors: &mut [A],
    buffers: &mut RoundBuffers,
) -> StepTrace {
    let RoundBuffers { staged, batch } = buffers;
    for actor in actors.iter_mut() {
        staged.clear();
        actor.step(world, staged);
        let party = actor.party();
        batch.extend(staged.drain(..).map(|a| (party, a)));
    }
    let mut outcomes = Vec::with_capacity(batch.len());
    for (party, action) in batch.drain(..) {
        outcomes.push(apply_action(world, party, action));
    }
    let trace = StepTrace { time: world.now(), outcomes };
    world.advance_delta();
    trace
}

fn apply_action(world: &mut World, party: PartyId, action: Action) -> ActionOutcome {
    match action {
        Action::Publish { chain, label, contract } => {
            world.publish_labeled(chain, party, label, contract);
            ActionOutcome { party, result: Ok(()) }
        }
        Action::Call { addr, msg } => {
            ActionOutcome { party, result: world.call(party, addr, msg.as_ref()) }
        }
    }
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
        let report = Scheduler::new(10).run(&mut world, &mut actors);

        // Publication and deposit happen in the same round here because the
        // publisher is visited first; what matters is that all actions
        // succeeded and the pot holds the deposit.
        assert!(report.failures().is_empty());
        assert!(report.rounds() <= 10);
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
        let report = Scheduler::new(100).run(&mut world, &mut actors);
        assert_eq!(report.rounds(), 1);
        assert_eq!(report.successes(), 1);
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
        let report = Scheduler::new(4).run(&mut world, &mut actors);
        assert_eq!(report.rounds(), 4);
        assert_eq!(world.now(), Time(4));
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
        let report = Scheduler::new(5).run(&mut world, &mut actors);
        assert_eq!(report.failures().len(), 1);
        assert!(!report.failures()[0].is_ok());
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
