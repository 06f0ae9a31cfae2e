//! Scripted parties, deviation strategies, and the one way a protocol
//! runs them.
//!
//! A protocol role is expressed as an ordered list of [`Step`]s. In every
//! synchronous round the party examines the world; the current step either
//! waits (its trigger has not been observed yet), makes partial progress, or
//! completes. A *sore loser* is modelled with [`Strategy::stop_after`]: the
//! party executes its first `k` steps faithfully and then stops
//! participating entirely — exactly the deviation class the paper's threat
//! model allows, since contracts reject malformed or mistimed calls anyway.
//!
//! # Protocols
//!
//! A scripted protocol implements [`Protocol`] once: setup, scripts, round
//! budget, final-state capture and judgement. [`Protocol::run`] sets a
//! profile up from scratch; a [`Prefix`] sets the protocol up once,
//! snapshots the world right after setup, and starts every profile from
//! that snapshot, with the compliant scripts forked under the profile's
//! strategies. Both then drive the rounds with the same loop
//! ([`chainsim::Scheduler`], which skips rounds in which every party
//! pure-waits) and share the capture and the judge, so their reports are
//! identical — pinned by `modelcheck`'s differential tests against its
//! replay-oracle sweeps.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use chainsim::{Action, Actor, PartyId, Scheduler, Tally, Time, World, WorldSnapshot};
use contracts::Hashkey;
use cryptosim::Digest;

/// The maximum script length a [`DelayVector`] can address. Every bundled
/// script has at most six steps; the fixed size keeps [`Strategy`] `Copy`.
pub const MAX_DELAY_STEPS: usize = 8;

/// Per-step emission delays, in blocks, for [`Timing::Delay`].
///
/// Entry `i` asks to delay step `i`'s emission by that many blocks past its
/// trigger. The hold is clamped to the last legal tick — within Δ of the
/// trigger *and* strictly before the step's annotated deadline — so every
/// vector is conforming by construction: oversized entries simply behave
/// like [`Timing::Procrastinate`] for that step, and a zero entry is eager.
/// The sampled tier draws these vectors at random to probe arbitrary points
/// of each legal window, not just its Eager/Procrastinate endpoints.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DelayVector(pub [u8; MAX_DELAY_STEPS]);

impl DelayVector {
    /// The all-zero vector (behaviourally eager).
    pub const ZERO: DelayVector = DelayVector([0; MAX_DELAY_STEPS]);

    /// Builds a vector from a prefix of per-step delays (at most
    /// [`MAX_DELAY_STEPS`]); the remaining steps are eager.
    pub fn from_slice(delays: &[u8]) -> DelayVector {
        assert!(delays.len() <= MAX_DELAY_STEPS, "script longer than MAX_DELAY_STEPS");
        let mut vector = DelayVector::ZERO;
        vector.0[..delays.len()].copy_from_slice(delays);
        vector
    }

    /// The requested delay of `step`, in blocks (zero past the end).
    pub fn get(&self, step: usize) -> u64 {
        if step < MAX_DELAY_STEPS {
            self.0[step] as u64
        } else {
            0
        }
    }

    /// Sets the requested delay of `step`, in blocks.
    pub fn set(&mut self, step: usize, blocks: u8) {
        if step < MAX_DELAY_STEPS {
            self.0[step] = blocks;
        }
    }

    /// Returns `true` if every entry is zero.
    pub fn is_zero(&self) -> bool {
        self.0 == [0; MAX_DELAY_STEPS]
    }
}

/// When within its legal window a party performs each protocol action.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Timing {
    /// Act as soon as the triggering condition is observed (the default).
    Eager,
    /// Delay every emission to the last clock tick that is still within one
    /// Δ of its trigger *and* strictly before the step's annotated deadline
    /// (see [`Step::with_deadline`]). A procrastinator is still conforming —
    /// every action lands inside its legal window — which makes this axis a
    /// searchlight for off-by-one timeout semantics: the paper's schedules
    /// are exactly tight enough to accommodate last-instant actors.
    Procrastinate,
    /// Delay each step's emission by its [`DelayVector`] entry, clamped to
    /// the same last legal tick as [`Timing::Procrastinate`]. This is the
    /// sampled tier's timing axis: the space of legal delay vectors is a
    /// product too large to enumerate, so it is sampled (and hill-climbed)
    /// rather than swept. Not part of [`Strategy::all`].
    Delay(DelayVector),
}

impl Timing {
    /// Returns `true` if this profile delays emissions of script step
    /// `step` in particular.
    fn delays_step(&self, step: usize) -> bool {
        match self {
            Timing::Eager => false,
            Timing::Procrastinate => true,
            Timing::Delay(vector) => vector.get(step) > 0,
        }
    }
}

/// Byzantine noise a party injects on top of its schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Fault {
    /// No fault.
    None,
    /// Alongside the first real emission of script step `step`, emit one
    /// [`GarbageCall`] per emitted contract call (a wrong-preimage/garbage
    /// message every contract must reject without state damage).
    Garbage {
        /// The script step whose first emission carries the garbage volley.
        step: usize,
    },
    /// On first reaching script step `step`, go dark for a fixed outage of
    /// [`CRASH_OUTAGE_DELTAS`]·Δ blocks, then resume the script where it
    /// left off — possibly past deadlines, exercising every give-up and
    /// recovery branch.
    Crash {
        /// The script step at which the party crashes.
        step: usize,
    },
    /// Like [`Fault::Crash`], but with a variable outage length of
    /// `quarters`·Δ/4 blocks (rounded up, at least one block). The ¼Δ…4Δ
    /// range covers outages that cross no deadline boundary — where the
    /// party must recover as "merely late", not as having missed a phase —
    /// as well as outages crossing several. Sampler-only: not part of
    /// [`Strategy::all`] (a `quarters: 8` outage equals [`Fault::Crash`]).
    Outage {
        /// The script step at which the party crashes.
        step: usize,
        /// Outage length in quarter-Δ units (`1..=16` spans ¼Δ…4Δ).
        quarters: u8,
    },
}

/// Blocks of outage (in units of the protocol's Δ) a [`Fault::Crash`] party
/// stays dark before recovering. Two Δ is long enough to cross a phase
/// boundary in every bundled protocol, short enough that the party recovers
/// within the run's round budget.
pub const CRASH_OUTAGE_DELTAS: u64 = 2;

/// Blocks a [`Fault::Outage`] of `quarters` quarter-Δ lasts at synchrony
/// bound `delta` blocks: `⌈quarters·Δ/4⌉`, at least one block so even a ¼Δ
/// outage at Δ = 1 is observable.
pub fn outage_blocks(quarters: u8, delta: u64) -> u64 {
    (quarters as u64 * delta.max(1)).div_ceil(4)
}

/// The message a [`Fault::Garbage`] deviator emits: no contract downcasts
/// it, so the call is rejected with `UnsupportedMessage` — modelling the
/// wrong-preimage/garbage emissions well-formed contracts must shrug off.
#[derive(Clone, Debug)]
pub struct GarbageCall;

/// How a party behaves during a protocol run: a walk-away budget, a timing
/// profile and a fault profile, independently composable.
///
/// The historical sore-loser model was the `stop_after` axis alone; the
/// timing and fault axes enlarge the checked deviation space to deadline-edge
/// behaviour (acting at the last legal instant), garbage emissions and
/// crash-then-recover outages.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Strategy {
    /// Execute at most this many steps, then walk away (a sore loser);
    /// `Some(0)` never participates, `None` follows the script to the end.
    pub stop_after: Option<usize>,
    /// The timing profile.
    pub timing: Timing,
    /// The fault profile.
    pub fault: Fault,
}

impl Strategy {
    /// The fully compliant strategy: run every step, eagerly, faultlessly.
    pub const fn compliant() -> Strategy {
        Strategy { stop_after: None, timing: Timing::Eager, fault: Fault::None }
    }

    /// A sore loser that executes the first `n` steps and then walks away.
    pub const fn stop_after(n: usize) -> Strategy {
        Strategy { stop_after: Some(n), timing: Timing::Eager, fault: Fault::None }
    }

    /// This strategy with [`Timing::Procrastinate`].
    pub const fn late(mut self) -> Strategy {
        self.timing = Timing::Procrastinate;
        self
    }

    /// This strategy with a per-step [`DelayVector`] timing profile.
    pub const fn with_delays(mut self, delays: DelayVector) -> Strategy {
        self.timing = Timing::Delay(delays);
        self
    }

    /// This strategy with the given fault profile.
    pub const fn with_fault(mut self, fault: Fault) -> Strategy {
        self.fault = fault;
        self
    }

    /// Returns `true` if this strategy *conforms* to the protocol: it never
    /// walks away and injects no faults. Timing is deliberately not part of
    /// conformance — the paper's guarantees are claimed for every party that
    /// acts within its legal windows, however lazily, so the hedged theorem
    /// is asserted for procrastinators too.
    pub fn is_compliant(&self) -> bool {
        self.stop_after.is_none() && self.fault == Fault::None
    }

    /// The number of steps the party will execute, given a script with
    /// `total` steps.
    pub fn steps_executed(&self, total: usize) -> usize {
        self.stop_after.map_or(total, |n| n.min(total))
    }

    /// The legacy stop-only space: compliant plus stopping after `0..total`
    /// steps. This is the sub-space the golden payoff matrices pin.
    pub fn stop_only(total: usize) -> Vec<Strategy> {
        let mut strategies = vec![Strategy::compliant()];
        strategies.extend((0..total).map(Strategy::stop_after));
        strategies
    }

    /// Enumerates every distinct strategy of the full
    /// `stop_after × timing × faults` product for a script with `total`
    /// steps, statically deduplicated:
    ///
    /// * stop points at or past `total` are behaviourally compliant and are
    ///   canonicalised to `stop_after: None` (never enumerated twice);
    /// * `Procrastinate` is dropped for `stop_after: Some(0)` (a party that
    ///   never acts has nothing to delay);
    /// * faults at steps the party never reaches (`step ≥` its stop budget)
    ///   can never fire and are not enumerated.
    ///
    /// The first entry is always [`Strategy::compliant`]. The size follows
    /// the closed form [`Strategy::space_size`]; sweep accounting
    /// (`runs == strategies`) is pinned against it.
    ///
    /// The sampled axes — [`Timing::Delay`] vectors and variable-length
    /// [`Fault::Outage`]s — are deliberately *not* enumerated here: their
    /// product space is too large to sweep, so the sampled tier in
    /// `modelcheck` draws from it instead.
    pub fn all(total: usize) -> Vec<Strategy> {
        let mut strategies = Vec::with_capacity(Self::space_size(total));
        for stop in std::iter::once(None).chain((0..total).map(Some)) {
            let reachable = stop.unwrap_or(total);
            let timings: &[Timing] = if reachable == 0 {
                &[Timing::Eager]
            } else {
                &[Timing::Eager, Timing::Procrastinate]
            };
            for &timing in timings {
                let base = Strategy { stop_after: stop, timing, fault: Fault::None };
                strategies.push(base);
                for step in 0..reachable {
                    strategies.push(base.with_fault(Fault::Garbage { step }));
                    strategies.push(base.with_fault(Fault::Crash { step }));
                }
            }
        }
        debug_assert_eq!(strategies.len(), Self::space_size(total));
        strategies
    }

    /// Closed form of [`Strategy::all`]'s length: `2·total² + 4·total + 1`.
    pub const fn space_size(total: usize) -> usize {
        2 * total * total + 4 * total + 1
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.stop_after {
            None => write!(f, "compliant")?,
            Some(n) => write!(f, "stop-after-{n}")?,
        }
        match self.timing {
            Timing::Eager => {}
            Timing::Procrastinate => write!(f, "+late")?,
            Timing::Delay(vector) => {
                let used = vector.0.iter().rposition(|&d| d > 0).map_or(1, |last| last + 1);
                write!(f, "+delay[")?;
                for (i, delay) in vector.0[..used].iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{delay}")?;
                }
                write!(f, "]")?;
            }
        }
        match self.fault {
            Fault::None => {}
            Fault::Garbage { step } => write!(f, "+garbage@{step}")?,
            Fault::Crash { step } => write!(f, "+crash@{step}")?,
            Fault::Outage { step, quarters } => write!(f, "+outage@{step}x{quarters}q")?,
        }
        Ok(())
    }
}

/// The result of evaluating a step against the current world.
#[derive(Debug)]
pub enum StepOutcome {
    /// The step's trigger has not been observed yet; try again next round.
    Wait,
    /// Like [`StepOutcome::Wait`], with a *pure-wait guarantee*: on any
    /// world identical except for a clock strictly before the given time,
    /// re-evaluating this step yields the same outcome and the same (or
    /// idempotent) memo effects. The scheduler uses the hint
    /// ([`Actor::wake_hint`]) to skip rounds in which **every** actor
    /// pure-waits and nothing was emitted — rounds whose only observable
    /// effect is the clock tick. Steps unsure of the guarantee must return
    /// plain `Wait`, which disables skipping for that round.
    WaitUntil(Time),
    /// Emit these actions and stay on the same step (partial progress).
    Progress(Vec<Action>),
    /// Emit these actions and move on to the next step.
    Complete(Vec<Action>),
}

/// Memoised hashkey constructions, keyed by the signer and the
/// collision-resistant chain tag of the base being extended (`None` for a
/// leader's initial hashkey).
///
/// Values are pure functions of their key within one deal configuration
/// (fixed seeds, keys and secrets), so carrying a memo across forks and
/// scenarios changes performance only, never outcomes.
pub type HashkeyMemo = BTreeMap<(PartyId, Option<Digest>), Hashkey>;

/// The explicit mutable state of a [`Step`].
///
/// Earlier revisions let step closures capture `mut` state (`FnMut`), which
/// made a mid-run script impossible to snapshot. All per-step state now
/// lives here, where [`ScriptedParty::fork`] can clone it: `done` tracks
/// per-leader sub-tasks a multi-leader phase has finished; `hashkeys`
/// memoises signature constructions (a cache, not semantic state — entries
/// may be shared across runs of the same configuration).
#[derive(Clone, Debug, Default)]
pub struct StepMemo {
    /// Parties (typically leaders) whose sub-task this step has completed.
    pub done: BTreeSet<PartyId>,
    /// Memoised hashkey constructions (see [`HashkeyMemo`]).
    pub hashkeys: HashkeyMemo,
}

/// The shared decision logic of a [`Step`].
type StepLogic = Arc<dyn Fn(&mut StepMemo, &World) -> StepOutcome + Send + Sync>;

/// One step of a party's protocol script.
///
/// The step's decision logic is immutable and shared (`Arc`) between the
/// forks a [`Prefix`] makes; its mutable state is an explicit [`StepMemo`]
/// that clones with the step.
#[derive(Clone)]
pub struct Step {
    /// Human-readable name used in traces and reports.
    pub name: &'static str,
    memo: StepMemo,
    logic: StepLogic,
    /// The last-legal-emission deadline of this step, if it has one: the
    /// contracts this step calls reject its emissions from this height on.
    ///
    /// [`Timing::Procrastinate`] parties delay each emission to the last
    /// tick strictly before `min(trigger + Δ, deadline)`. Steps without a
    /// deadline (settlement/recovery steps, whose actions have no late
    /// bound) are never delayed. Like the [`StepOutcome::WaitUntil`]
    /// contract, the annotation carries a stability obligation: on a frozen
    /// world, an emission this step is ready to make must stay available
    /// until the deadline.
    deadline: Option<Time>,
}

impl Step {
    /// Creates a stateless step from a name and closure.
    pub fn new(
        name: &'static str,
        run: impl Fn(&World) -> StepOutcome + Send + Sync + 'static,
    ) -> Self {
        Step {
            name,
            memo: StepMemo::default(),
            logic: Arc::new(move |_, world| run(world)),
            deadline: None,
        }
    }

    /// Creates a step whose closure reads and writes an explicit
    /// [`StepMemo`].
    pub fn stateful(
        name: &'static str,
        run: impl Fn(&mut StepMemo, &World) -> StepOutcome + Send + Sync + 'static,
    ) -> Self {
        Step { name, memo: StepMemo::default(), logic: Arc::new(run), deadline: None }
    }

    /// Annotates the step with its last-legal-emission deadline (see
    /// [`Step::deadline`] on the field for the exact contract).
    #[must_use]
    pub fn with_deadline(mut self, deadline: Time) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// The step's annotated last-legal-emission deadline, if any. Static
    /// schedule checks read this to verify per-party deadline ladders.
    pub fn deadline(&self) -> Option<Time> {
        self.deadline
    }
}

impl fmt::Debug for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Step({})", self.name)
    }
}

/// An [`Actor`] that follows a script of [`Step`]s under a [`Strategy`].
#[derive(Clone)]
pub struct ScriptedParty {
    party: PartyId,
    steps: Vec<Step>,
    /// The next step to run, which is also the number of steps completed:
    /// only a [`StepOutcome::Complete`] advances it.
    cursor: usize,
    allowed: usize,
    timing: Timing,
    fault: Fault,
    /// The protocol's synchrony bound Δ in blocks (see
    /// [`ScriptedParty::with_delta`]); bounds procrastination holds and
    /// sizes crash outages.
    delta: u64,
    /// An armed procrastination hold: the step cursor it belongs to and the
    /// tick at which the delayed emission fires.
    hold: Option<(usize, Time)>,
    /// Set once a [`Fault::Crash`] outage has started; the party is silent
    /// strictly before this height and recovered from it on.
    crash_until: Option<Time>,
    /// Whether the one-shot [`Fault::Garbage`] volley has fired.
    garbage_done: bool,
    /// The wake hint of the most recent evaluation: `Some(t)` after a
    /// [`StepOutcome::WaitUntil(t)`], `Some(Time::MAX)` while the party is
    /// done (it will never act again), `None` otherwise.
    wake: Option<Time>,
}

impl ScriptedParty {
    /// Creates a scripted party executing `steps` under `strategy`, with a
    /// default Δ of one block (see [`ScriptedParty::with_delta`]).
    pub fn new(party: PartyId, steps: Vec<Step>, strategy: Strategy) -> Self {
        let allowed = strategy.steps_executed(steps.len());
        ScriptedParty {
            party,
            steps,
            cursor: 0,
            allowed,
            timing: strategy.timing,
            fault: strategy.fault,
            delta: 1,
            hold: None,
            crash_until: None,
            garbage_done: false,
            wake: None,
        }
    }

    /// Sets the protocol's synchrony bound Δ in blocks. Procrastination
    /// delays emissions to the last tick within Δ of their trigger, and
    /// crash outages last [`CRASH_OUTAGE_DELTAS`]·Δ — both are no-ops for
    /// strategies without those axes, so eager faultless parties behave
    /// identically for every Δ.
    #[must_use]
    pub fn with_delta(mut self, delta_blocks: u64) -> Self {
        self.delta = delta_blocks.max(1);
        self
    }

    /// The number of steps completed so far.
    pub fn completed_steps(&self) -> usize {
        self.cursor
    }

    /// The total number of steps in the script.
    pub fn total_steps(&self) -> usize {
        self.steps.len()
    }

    /// The party this script belongs to.
    pub fn party(&self) -> PartyId {
        self.party
    }

    /// The synchrony bound Δ (in blocks) the script was built with.
    pub fn delta_blocks(&self) -> u64 {
        self.delta
    }

    /// The steps' `(name, annotated deadline)` metadata, in script order.
    /// Static schedule checks consume this without executing any step.
    pub fn step_deadlines(&self) -> Vec<(&'static str, Option<Time>)> {
        self.steps.iter().map(|s| (s.name, s.deadline())).collect()
    }

    /// Clones this party's mid-run state under a (possibly different)
    /// strategy budget.
    ///
    /// Step logic is shared; step memos and the script cursor are cloned, so
    /// the fork continues from exactly this party's current position. A
    /// [`Prefix`] forks its compliant scripts into each profile's parties.
    pub fn fork(&self, strategy: Strategy) -> ScriptedParty {
        let allowed = strategy.steps_executed(self.steps.len());
        ScriptedParty {
            party: self.party,
            steps: self.steps.clone(),
            cursor: self.cursor,
            allowed,
            timing: strategy.timing,
            fault: strategy.fault,
            delta: self.delta,
            hold: None,
            crash_until: None,
            garbage_done: false,
            wake: None,
        }
    }

    /// Merges the hashkey memos another fork of this party accumulated.
    ///
    /// Memo values are pure functions of their keys, so absorbing a sibling
    /// fork's entries only saves future recomputation; `done` state is *not*
    /// merged (it is semantic, per-run state).
    fn absorb_hashkey_memos(&mut self, other: &ScriptedParty) {
        for (mine, theirs) in self.steps.iter_mut().zip(&other.steps) {
            for (key, value) in &theirs.memo.hashkeys {
                mine.memo.hashkeys.entry(*key).or_insert_with(|| value.clone());
            }
        }
    }
}

impl fmt::Debug for ScriptedParty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScriptedParty")
            .field("party", &self.party)
            .field("cursor", &self.cursor)
            .field("steps", &self.steps.len())
            .field("allowed", &self.allowed)
            .finish()
    }
}

/// The last clock tick strictly before `min(now + Δ, deadline)`, if any tick
/// strictly after `now` qualifies. Ticks are spaced by the world's block
/// step, anchored at `now` (the scheduler advances the clock uniformly, so
/// every observable instant is reachable this way).
fn procrastinate_hold(now: Time, delta: u64, deadline: Time, block_step: u64) -> Option<Time> {
    let target = deadline.min(now.plus(delta.max(1)));
    if target <= now {
        return None;
    }
    let block_step = block_step.max(1);
    let span = (target.height() - 1).saturating_sub(now.height());
    let hold = Time(now.height() + (span / block_step) * block_step);
    (hold > now).then_some(hold)
}

/// The hold tick for `timing`'s emission of script step `step` triggered at
/// `now`, if the emission is delayed at all. [`Timing::Procrastinate`] holds
/// to the last legal tick; [`Timing::Delay`] holds to `now` plus the step's
/// requested blocks, clamped to that same last legal tick — so every hold is
/// within Δ of its trigger and strictly before `deadline` by construction.
fn emission_hold(
    timing: Timing,
    step: usize,
    now: Time,
    delta: u64,
    deadline: Time,
    block_step: u64,
) -> Option<Time> {
    let last = procrastinate_hold(now, delta, deadline, block_step)?;
    match timing {
        Timing::Eager => None,
        Timing::Procrastinate => Some(last),
        Timing::Delay(vector) => {
            let blocks = vector.get(step);
            if blocks == 0 {
                return None;
            }
            Some(last.min(now.plus(blocks * block_step.max(1))))
        }
    }
}

/// The tick at which a party with the given `timing` actually emits a step
/// that became ready at `now` under the annotated `deadline`.
///
/// Exposed for the sampled tier's legality property tests: whenever the
/// result differs from `now`, it is within Δ of `now`, strictly before
/// `deadline`, and on the scheduler's tick grid.
pub fn delayed_emission_tick(
    timing: Timing,
    step: usize,
    now: Time,
    delta: u64,
    deadline: Time,
    block_step: u64,
) -> Time {
    emission_hold(timing, step, now, delta, deadline, block_step).unwrap_or(now)
}

impl ScriptedParty {
    /// Stages `emitted` into `actions`, firing the one-shot garbage volley
    /// first when this is the [`Fault::Garbage`] step's first emission.
    fn emit(&mut self, emitted: &mut Vec<Action>, actions: &mut Vec<Action>) {
        if emitted.is_empty() {
            return;
        }
        // An expired hold is consumed by the emission it delayed; the next
        // volley of a multi-emission step arms its own hold.
        self.hold = None;
        if let Fault::Garbage { step } = self.fault {
            if !self.garbage_done && self.cursor == step {
                self.garbage_done = true;
                for action in emitted.iter() {
                    if let Action::Call { addr, .. } = action {
                        actions.push(Action::call(*addr, GarbageCall));
                    }
                }
            }
        }
        actions.append(emitted);
    }
}

impl Actor for ScriptedParty {
    fn party(&self) -> PartyId {
        self.party
    }

    fn step(&mut self, world: &World, actions: &mut Vec<Action>) {
        if self.done() {
            return;
        }
        let now = world.now();
        // Crash-recover: on first reaching the crash step, go dark for the
        // fault's outage, then resume the script where it left off.
        if self.crash_until.is_none() {
            let outage = match self.fault {
                Fault::Crash { step } if self.cursor == step => {
                    Some(CRASH_OUTAGE_DELTAS * self.delta)
                }
                Fault::Outage { step, quarters } if self.cursor == step => {
                    Some(outage_blocks(quarters, self.delta))
                }
                _ => None,
            };
            if let Some(blocks) = outage {
                self.crash_until = Some(now.plus(blocks));
            }
        }
        if let Some(until) = self.crash_until {
            if now.is_before(until) {
                // Deterministically silent whatever the world does: a sound
                // pure-wait hint.
                self.wake = Some(until);
                return;
            }
        }
        // An armed procrastination hold keeps the party silent (without
        // re-evaluating the step) until the hold tick.
        if let Some((held_cursor, hold)) = self.hold {
            if held_cursor == self.cursor && now.is_before(hold) {
                self.wake = Some(hold);
                return;
            }
        }
        let deadline = self.steps[self.cursor].deadline;
        // A delaying party peeks at the step to learn whether it is ready to
        // emit; a suppressed peek must leave no trace, so the memo is saved
        // and restored around it.
        let may_delay = self.timing.delays_step(self.cursor)
            && deadline.is_some()
            && self.hold.is_none_or(|(held_cursor, _)| held_cursor != self.cursor);
        let saved_memo = may_delay.then(|| self.steps[self.cursor].memo.clone());
        let Step { memo, logic, .. } = &mut self.steps[self.cursor];
        let outcome = logic(memo, world);
        if let Some(saved) = saved_memo {
            let emits = matches!(
                &outcome,
                StepOutcome::Progress(a) | StepOutcome::Complete(a) if !a.is_empty()
            );
            if emits {
                let deadline = deadline.expect("may_delay requires a deadline");
                if let Some(hold) = emission_hold(
                    self.timing,
                    self.cursor,
                    now,
                    self.delta,
                    deadline,
                    world.delta_blocks(),
                ) {
                    self.steps[self.cursor].memo = saved;
                    self.hold = Some((self.cursor, hold));
                    self.wake = Some(hold);
                    return;
                }
            }
        }
        match outcome {
            StepOutcome::Wait => {
                self.hold = None;
                self.wake = None;
            }
            StepOutcome::WaitUntil(time) => {
                self.hold = None;
                self.wake = Some(time);
            }
            StepOutcome::Progress(mut emitted) => {
                self.wake = None;
                self.emit(&mut emitted, actions);
            }
            StepOutcome::Complete(mut emitted) => {
                self.wake = None;
                self.emit(&mut emitted, actions);
                self.cursor += 1;
            }
        }
    }

    fn done(&self) -> bool {
        self.cursor >= self.steps.len() || self.cursor >= self.allowed
    }

    /// The wake time of the most recent evaluation's
    /// [`StepOutcome::WaitUntil`], crash outage or emission hold, or
    /// [`Time::MAX`] once the party is done.
    fn wake_hint(&self) -> Option<Time> {
        if self.done() {
            Some(Time::MAX)
        } else {
            self.wake
        }
    }
}

/// Restores `world` to `snapshot`, forks `parties` under `profile` and
/// drives the forks with the [`Scheduler`]. The forks' hashkey memos go
/// back into `parties`, so the next profile does not sign them again.
fn resume(
    snapshot: &WorldSnapshot,
    parties: &mut [ScriptedParty],
    world: &mut World,
    profile: Profile<'_>,
    max_rounds: u64,
) -> Tally {
    world.restore(snapshot);
    let mut forks: Vec<ScriptedParty> = parties.iter().map(|p| p.fork(profile(p.party))).collect();
    let tally = Scheduler::new(max_rounds).run(world, &mut forks);
    for (party, fork) in parties.iter_mut().zip(&forks) {
        party.absorb_hashkey_memos(fork);
    }
    tally
}

/// A world right after setup and the compliant scripts, from which
/// [`DeviationTree::resume`] runs any profile: the mechanism of a
/// [`Prefix`], without a protocol to capture and judge the result.
///
/// The name is historical. The type once kept a checkpoint per round of the
/// compliant run and resumed each profile from the round it diverged at;
/// the names stay while the `perfbench` benchmark calls them.
pub struct DeviationTree {
    world: WorldSnapshot,
    parties: Vec<ScriptedParty>,
    max_rounds: u64,
}

impl fmt::Debug for DeviationTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DeviationTree").field("parties", &self.parties.len()).finish()
    }
}

/// Totals of a [`DeviationTree::resume`]: the same rounds and rejected
/// actions as a [`Protocol::run`] of the profile.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResumedRun {
    /// Synchronous rounds run, skipped pure-wait rounds included.
    pub rounds: usize,
    /// Rejected actions.
    pub failed_actions: usize,
    /// Always 0: every profile starts from the one post-setup snapshot.
    pub state_key: u64,
    /// `true` when no round ran, so the final state is the snapshot's.
    pub zero_tail: bool,
}

impl DeviationTree {
    /// Snapshots `world`, which setup has just built, and keeps `parties`,
    /// the compliant scripts, and the round budget of each resume.
    pub fn record(world: &mut World, parties: Vec<ScriptedParty>, max_rounds: u64) -> Self {
        DeviationTree { world: world.snapshot(), parties, max_rounds }
    }

    /// Runs the profile `strategy_of` inside `world` from the recorded
    /// snapshot.
    pub fn resume(
        &mut self,
        world: &mut World,
        strategy_of: &dyn Fn(PartyId) -> Strategy,
    ) -> ResumedRun {
        let tally = resume(&self.world, &mut self.parties, world, strategy_of, self.max_rounds);
        ResumedRun {
            rounds: tally.rounds,
            failed_actions: tally.failed,
            state_key: 0,
            zero_tail: tally.rounds == 0,
        }
    }
}

// ---------------------------------------------------------------------------
// Protocols: one definition, one from-scratch runner, one shared prefix.
// ---------------------------------------------------------------------------

/// A strategy profile: the strategy each party plays. Profiles built from a
/// strategy map ([`profile`]) leave the parties they do not name compliant.
pub type Profile<'a> = &'a dyn Fn(PartyId) -> Strategy;

/// The profile that plays `strategies[party]`, and [`Strategy::compliant`]
/// for every party `strategies` does not name.
pub fn profile(strategies: &BTreeMap<PartyId, Strategy>) -> impl Fn(PartyId) -> Strategy + '_ {
    |party| strategies.get(&party).copied().unwrap_or(Strategy::compliant())
}

/// A scripted protocol, defined once: its world, its scripts, its round
/// budget, the final state a run leaves and the report judged from it.
///
/// Every scripted run starts in one of two ways: [`Protocol::run`] sets the
/// protocol up for the profile (the one-off path and the replay oracle),
/// and a [`Prefix`] restores the world it snapshotted right after setup.
/// Both drive the rounds with the [`Scheduler`], capture the final state
/// with [`Protocol::capture`] and judge it with [`Protocol::judge`], so
/// their reports are identical.
pub trait Protocol {
    /// What setup leaves for scripting, capture and judging: contract
    /// addresses, asset ids, pre-run balances.
    type Setup;
    /// The final state a report is judged from; the profile enters only
    /// through [`Protocol::judge`].
    type Capture;
    /// The protocol's report.
    type Report;

    /// Resets `world` and builds the protocol's chains, endowments and
    /// contracts.
    fn setup(&self, world: &mut World) -> Self::Setup;

    /// Every party's script under `profile`, in party-id order.
    fn script(&self, setup: &Self::Setup, profile: Profile<'_>) -> Vec<ScriptedParty>;

    /// The round budget of one run.
    fn max_rounds(&self) -> u64;

    /// Captures the final state of a run that executed `rounds` rounds and
    /// saw `failed_actions` rejected actions.
    fn capture(
        &self,
        world: &World,
        setup: &Self::Setup,
        rounds: usize,
        failed_actions: usize,
    ) -> Self::Capture;

    /// Judges `capture` under `profile`: payoffs, lock-ups and the hedged
    /// predicates of the parties `profile` leaves compliant.
    fn judge(
        &self,
        setup: &Self::Setup,
        capture: &Self::Capture,
        profile: Profile<'_>,
    ) -> Self::Report;

    /// Runs `profile` from scratch inside `world`, which is reset first.
    fn run(&self, profile: Profile<'_>, world: &mut World) -> Self::Report {
        let setup = self.setup(world);
        let mut parties = self.script(&setup, profile);
        let tally = Scheduler::new(self.max_rounds()).run(world, &mut parties);
        let capture = self.capture(world, &setup, tally.rounds, tally.failed);
        self.judge(&setup, &capture, profile)
    }

    /// The protocol's world and compliant parties, without executing a
    /// round. Static analyzers read the contracts' state specs and the
    /// scripts' deadline annotations from it.
    fn static_setup(&self) -> (World, Vec<ScriptedParty>) {
        let mut world = World::new(1);
        let setup = self.setup(&mut world);
        let parties = self.script(&setup, &|_| Strategy::compliant());
        (world, parties)
    }
}

/// One [`Protocol`] set up once and shared by every profile run through it:
/// the world as setup left it and the compliant scripts. Each profile
/// restores that world and forks the scripts under its strategies, so it
/// skips the setup [`Protocol::run`] repeats; the reports are identical.
pub struct Prefix<P: Protocol> {
    protocol: P,
    setup: P::Setup,
    /// The world right after setup.
    world: WorldSnapshot,
    /// The compliant scripts, which also carry the hashkey memos every
    /// profile's run has filled in so far.
    parties: Vec<ScriptedParty>,
}

impl<P: Protocol> fmt::Debug for Prefix<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Prefix").field("parties", &self.parties.len()).finish()
    }
}

impl<P: Protocol> Prefix<P> {
    /// Sets `protocol` up inside `world` and snapshots the result.
    pub fn record(protocol: P, world: &mut World) -> Self {
        let setup = protocol.setup(world);
        let parties = protocol.script(&setup, &|_| Strategy::compliant());
        Prefix { world: world.snapshot(), protocol, setup, parties }
    }

    /// Runs `profile` inside `world` from the post-setup snapshot.
    pub fn run(&mut self, profile: Profile<'_>, world: &mut World) -> P::Report {
        let Prefix { protocol, setup, world: snapshot, parties } = self;
        let tally = resume(snapshot, parties, world, profile, protocol.max_rounds());
        let capture = protocol.capture(world, setup, tally.rounds, tally.failed);
        protocol.judge(setup, &capture, profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_step_budgets() {
        assert_eq!(Strategy::compliant().steps_executed(5), 5);
        assert_eq!(Strategy::stop_after(2).steps_executed(5), 2);
        assert_eq!(Strategy::stop_after(9).steps_executed(5), 5);
        assert!(Strategy::compliant().is_compliant());
        assert!(!Strategy::stop_after(0).is_compliant());
        assert_eq!(Strategy::stop_only(3).len(), 4);
        assert_eq!(Strategy::compliant().to_string(), "compliant");
        assert_eq!(Strategy::stop_after(1).to_string(), "stop-after-1");
    }

    #[test]
    fn full_strategy_space_matches_its_closed_form_and_dedupes() {
        for total in 0..=6usize {
            let space = Strategy::all(total);
            assert_eq!(space.len(), Strategy::space_size(total), "total={total}");
            assert_eq!(space[0], Strategy::compliant());
            // Statically distinct: the product space never enumerates the
            // same strategy twice (no double-counted compliant outcomes).
            let unique: BTreeSet<Strategy> = space.iter().copied().collect();
            assert_eq!(unique.len(), space.len(), "duplicates at total={total}");
            for strategy in &space {
                // Dedup rules: no stop point ≥ total, no unreachable fault,
                // no procrastination for a party that never acts.
                if let Some(k) = strategy.stop_after {
                    assert!(k < total);
                }
                let reachable = strategy.stop_after.unwrap_or(total);
                match strategy.fault {
                    Fault::None => {}
                    Fault::Garbage { step } | Fault::Crash { step } => assert!(step < reachable),
                    Fault::Outage { .. } => panic!("variable outages are sampler-only"),
                }
                if reachable == 0 {
                    assert_eq!(strategy.timing, Timing::Eager);
                }
            }
        }
    }

    #[test]
    fn strategy_display_names_every_axis() {
        assert_eq!(Strategy::compliant().late().to_string(), "compliant+late");
        assert_eq!(
            Strategy::stop_after(2).late().with_fault(Fault::Garbage { step: 1 }).to_string(),
            "stop-after-2+late+garbage@1"
        );
        assert_eq!(
            Strategy::compliant().with_fault(Fault::Crash { step: 0 }).to_string(),
            "compliant+crash@0"
        );
        assert!(Strategy::compliant().late().is_compliant(), "lazy but conforming");
        assert!(!Strategy::compliant().with_fault(Fault::Garbage { step: 0 }).is_compliant());
    }

    #[test]
    fn procrastinate_hold_lands_on_the_last_legal_tick() {
        use super::procrastinate_hold;
        // Within Δ of the trigger, bounded by the deadline.
        assert_eq!(procrastinate_hold(Time(0), 2, Time(2), 1), Some(Time(1)));
        assert_eq!(procrastinate_hold(Time(0), 2, Time(10), 1), Some(Time(1)));
        assert_eq!(procrastinate_hold(Time(8), 2, Time(10), 1), Some(Time(9)));
        // Already at the last tick: emit now.
        assert_eq!(procrastinate_hold(Time(1), 1, Time(2), 1), None);
        // Deadline already reached: emit now (the step's give-up handles it).
        assert_eq!(procrastinate_hold(Time(5), 2, Time(5), 1), None);
        // Coarser world ticks stay on the tick grid.
        assert_eq!(procrastinate_hold(Time(0), 6, Time(6), 2), Some(Time(4)));
    }

    #[test]
    fn procrastinating_party_delays_to_the_last_tick_before_its_deadline() {
        let mut world = World::new(1);
        world.add_chain("a");
        let steps = vec![Step::new("emit", |_| {
            StepOutcome::Complete(vec![Action::publish(
                chainsim::ChainId(0),
                "x",
                Box::new(NoopContract),
            )])
        })
        .with_deadline(Time(4))];
        let mut party =
            ScriptedParty::new(PartyId(0), steps, Strategy::compliant().late()).with_delta(4);
        let mut actions = Vec::new();
        party.step(&world, &mut actions);
        assert!(actions.is_empty(), "emission suppressed at t=0");
        assert_eq!(party.wake, Some(Time(3)), "held to the last tick before the deadline");
        world.advance_blocks(3);
        party.step(&world, &mut actions);
        assert_eq!(actions.len(), 1, "delayed emission fires at t=3");
        assert!(party.done());
    }

    #[test]
    fn crashed_party_goes_dark_then_recovers() {
        let mut world = World::new(1);
        world.add_chain("a");
        let steps = vec![
            Step::new("one", |_| StepOutcome::Complete(vec![])),
            Step::new("two", |_| StepOutcome::Complete(vec![])),
        ];
        let strategy = Strategy::compliant().with_fault(Fault::Crash { step: 1 });
        let mut party = ScriptedParty::new(PartyId(0), steps, strategy).with_delta(2);
        let mut actions = Vec::new();
        party.step(&world, &mut actions);
        assert_eq!(party.completed_steps(), 1, "pre-crash step executes normally");
        // Reaching step 1 starts a 2Δ = 4 block outage.
        party.step(&world, &mut actions);
        assert_eq!(party.completed_steps(), 1, "dark during the outage");
        assert_eq!(party.wake, Some(Time(4)));
        world.advance_blocks(4);
        party.step(&world, &mut actions);
        assert_eq!(party.completed_steps(), 2, "recovered and resumed");
    }

    #[test]
    fn outage_blocks_rounds_quarter_deltas_up() {
        // Δ = 2: ¼Δ…4Δ in quarter units.
        assert_eq!(outage_blocks(1, 2), 1, "¼Δ rounds up to one block");
        assert_eq!(outage_blocks(2, 2), 1, "½Δ of Δ=2 is one block");
        assert_eq!(outage_blocks(4, 2), 2, "Δ exactly");
        assert_eq!(outage_blocks(8, 2), 4, "2Δ matches Fault::Crash");
        assert_eq!(outage_blocks(16, 2), 8, "4Δ");
        // Δ = 1: every sub-Δ outage still lasts at least one block.
        assert_eq!(outage_blocks(1, 1), 1);
        assert_eq!(outage_blocks(16, 1), 4);
        // Equivalence with the fixed crash outage at quarters = 8.
        for delta in 1..=8u64 {
            assert_eq!(outage_blocks(8, delta), CRASH_OUTAGE_DELTAS * delta);
        }
    }

    #[test]
    fn variable_outage_party_goes_dark_for_its_quarters() {
        let mut world = World::new(1);
        world.add_chain("a");
        let steps = vec![
            Step::new("one", |_| StepOutcome::Complete(vec![])),
            Step::new("two", |_| StepOutcome::Complete(vec![])),
        ];
        // ½Δ at Δ = 2: a single block of darkness.
        let strategy = Strategy::compliant().with_fault(Fault::Outage { step: 1, quarters: 2 });
        let mut party = ScriptedParty::new(PartyId(0), steps, strategy).with_delta(2);
        let mut actions = Vec::new();
        party.step(&world, &mut actions);
        assert_eq!(party.completed_steps(), 1, "pre-outage step executes normally");
        party.step(&world, &mut actions);
        assert_eq!(party.completed_steps(), 1, "dark during the sub-Δ outage");
        assert_eq!(party.wake, Some(Time(1)));
        world.advance_blocks(1);
        party.step(&world, &mut actions);
        assert_eq!(party.completed_steps(), 2, "recovered after half a Δ");
    }

    #[test]
    fn delay_vector_holds_each_step_by_its_entry() {
        use super::emission_hold;
        let delays = Timing::Delay(DelayVector::from_slice(&[1, 0, 3]));
        // Step 0: one block past the trigger, inside the legal window.
        assert_eq!(emission_hold(delays, 0, Time(0), 4, Time(10), 1), Some(Time(1)));
        // Step 1: zero delay is eager.
        assert_eq!(emission_hold(delays, 1, Time(0), 4, Time(10), 1), None);
        // Step 2: clamped to the procrastinate hold when the request
        // overshoots the window (Δ = 2 ⇒ last legal tick is t+1).
        assert_eq!(emission_hold(delays, 2, Time(0), 2, Time(10), 1), Some(Time(1)));
        // Steps past the vector's end are eager.
        assert_eq!(emission_hold(delays, MAX_DELAY_STEPS, Time(0), 4, Time(10), 1), None);
        // The public emission tick defaults to `now` when not delayed.
        assert_eq!(delayed_emission_tick(delays, 1, Time(7), 4, Time(10), 1), Time(7));
        assert_eq!(delayed_emission_tick(delays, 0, Time(7), 4, Time(10), 1), Time(8));
        // Maximal entries reproduce Procrastinate exactly.
        let maxed = Timing::Delay(DelayVector([u8::MAX; MAX_DELAY_STEPS]));
        for (now, delta, deadline) in [(0u64, 2u64, 2u64), (0, 2, 10), (8, 2, 10), (5, 2, 5)] {
            assert_eq!(
                emission_hold(maxed, 0, Time(now), delta, Time(deadline), 1),
                emission_hold(Timing::Procrastinate, 0, Time(now), delta, Time(deadline), 1),
            );
        }
    }

    #[test]
    fn delay_vector_party_matches_the_procrastinator_at_full_delay() {
        let make_party = |timing: Timing| {
            let steps = vec![Step::new("emit", |_| {
                StepOutcome::Complete(vec![Action::publish(
                    chainsim::ChainId(0),
                    "x",
                    Box::new(NoopContract),
                )])
            })
            .with_deadline(Time(4))];
            let strategy = Strategy { stop_after: None, timing, fault: Fault::None };
            ScriptedParty::new(PartyId(0), steps, strategy).with_delta(4)
        };
        let mut world = World::new(1);
        world.add_chain("a");
        let mut late = make_party(Timing::Procrastinate);
        let mut maxed = make_party(Timing::Delay(DelayVector::from_slice(&[u8::MAX])));
        let mut modest = make_party(Timing::Delay(DelayVector::from_slice(&[2])));
        let mut actions = Vec::new();
        for party in [&mut late, &mut maxed, &mut modest] {
            party.step(&world, &mut actions);
        }
        assert!(actions.is_empty(), "all emissions suppressed at t=0");
        assert_eq!(late.wake, Some(Time(3)));
        assert_eq!(maxed.wake, Some(Time(3)), "oversized delay clamps to the last tick");
        assert_eq!(modest.wake, Some(Time(2)), "a 2-block delay lands mid-window");
        world.advance_blocks(2);
        modest.step(&world, &mut actions);
        assert_eq!(actions.len(), 1, "the mid-window emission fires at t=2");
        assert!(modest.done());
    }

    #[test]
    fn garbage_fault_rides_on_the_faulted_steps_first_emission() {
        let world = {
            let mut world = World::new(1);
            world.add_chain("a");
            world
        };
        let addr = chainsim::ContractAddr::new(chainsim::ChainId(0), chainsim::ContractId(7));
        let steps =
            vec![Step::new("call", move |_| StepOutcome::Complete(vec![Action::call(addr, Ping)]))];
        let strategy = Strategy::compliant().with_fault(Fault::Garbage { step: 0 });
        let mut party = ScriptedParty::new(PartyId(0), steps, strategy);
        let mut actions = Vec::new();
        party.step(&world, &mut actions);
        assert_eq!(actions.len(), 2, "garbage volley precedes the real call");
        match &actions[0] {
            Action::Call { msg, .. } => {
                assert!(msg.as_ref().as_any().downcast_ref::<GarbageCall>().is_some());
            }
            other => panic!("expected a garbage call, got {other:?}"),
        }
        match &actions[1] {
            Action::Call { msg, .. } => {
                assert!(msg.as_ref().as_any().downcast_ref::<Ping>().is_some());
            }
            other => panic!("expected the real call, got {other:?}"),
        }
    }

    /// A contract that logs the height of every call it accepts.
    #[derive(Clone, Debug, Default)]
    struct Log(Vec<u64>);

    impl chainsim::Contract for Log {
        fn type_name(&self) -> &'static str {
            "Log"
        }
        fn clone_box(&self) -> Box<dyn chainsim::Contract> {
            Box::new(self.clone())
        }
        fn handle(
            &mut self,
            env: &mut chainsim::CallEnv<'_>,
            _msg: &dyn std::any::Any,
        ) -> Result<(), chainsim::ContractError> {
            self.0.push(env.now().height());
            Ok(())
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    /// One party pinging a [`Log`] three times: step `i` waits for height
    /// `3i` and must land before `3i + 3`. The report is the logged heights.
    #[derive(Clone, Copy)]
    struct Beacons;

    impl Protocol for Beacons {
        type Setup = chainsim::ContractAddr;
        type Capture = Vec<u64>;
        type Report = Vec<u64>;

        fn setup(&self, world: &mut World) -> chainsim::ContractAddr {
            world.reset(1);
            let chain = world.add_chain("a");
            world.publish_labeled(chain, PartyId(0), "log", Box::new(Log::default()))
        }
        fn script(&self, log: &chainsim::ContractAddr, profile: Profile<'_>) -> Vec<ScriptedParty> {
            let log = *log;
            let steps = (0..3u64)
                .map(|i| {
                    Step::new("ping", move |world: &World| {
                        if world.now().has_reached(Time(3 * i)) {
                            StepOutcome::Complete(vec![Action::call(log, Ping)])
                        } else {
                            StepOutcome::WaitUntil(Time(3 * i))
                        }
                    })
                    .with_deadline(Time(3 * i + 3))
                })
                .collect();
            vec![ScriptedParty::new(PartyId(0), steps, profile(PartyId(0))).with_delta(3)]
        }
        fn max_rounds(&self) -> u64 {
            16
        }
        fn capture(
            &self,
            world: &World,
            log: &chainsim::ContractAddr,
            _: usize,
            _: usize,
        ) -> Vec<u64> {
            world.chain(log.chain).contract_as::<Log>(log.contract).expect("log").0.clone()
        }
        fn judge(
            &self,
            _: &chainsim::ContractAddr,
            heights: &Vec<u64>,
            _: Profile<'_>,
        ) -> Vec<u64> {
            heights.clone()
        }
    }

    #[test]
    fn delaying_one_step_holds_only_that_step_on_every_runner() {
        let mut delays = DelayVector::ZERO;
        delays.set(2, u8::MAX);
        let late = |_| Strategy::compliant().with_delays(delays);
        let from_scratch = Beacons.run(&late, &mut World::new(1));
        assert_eq!(from_scratch, vec![0, 3, 8], "only step 2 is held, to its last legal tick");

        let mut world = World::new(1);
        let log = Beacons.setup(&mut world);
        let parties = Beacons.script(&log, &|_| Strategy::compliant());
        let mut tree = DeviationTree::record(&mut world, parties, Beacons.max_rounds());
        let resumed = tree.resume(&mut world, &late);
        assert_eq!(Beacons.capture(&world, &log, resumed.rounds, 0), from_scratch);
        assert_eq!(Prefix::record(Beacons, &mut world).run(&late, &mut world), from_scratch);
    }

    /// Minimal contract/message fixtures for the fault tests.
    #[derive(Clone, Debug)]
    struct Ping;

    #[derive(Clone, Debug)]
    struct NoopContract;

    impl chainsim::Contract for NoopContract {
        fn type_name(&self) -> &'static str {
            "Noop"
        }
        fn clone_box(&self) -> Box<dyn chainsim::Contract> {
            Box::new(self.clone())
        }
        fn handle(
            &mut self,
            _env: &mut chainsim::CallEnv<'_>,
            _msg: &dyn std::any::Any,
        ) -> Result<(), chainsim::ContractError> {
            Ok(())
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    #[test]
    fn scripted_party_advances_and_respects_budget() {
        let mut world = World::new(1);
        world.add_chain("a");
        let steps = vec![
            Step::new("one", |_| StepOutcome::Complete(vec![])),
            Step::new("two", |_| StepOutcome::Complete(vec![])),
            Step::new("three", |_| StepOutcome::Complete(vec![])),
        ];
        let mut party = ScriptedParty::new(PartyId(0), steps, Strategy::stop_after(2));
        let mut actions = Vec::new();
        party.step(&world, &mut actions);
        party.step(&world, &mut actions);
        assert_eq!(party.completed_steps(), 2);
        assert!(party.done(), "stops after its deviation budget");
        party.step(&world, &mut actions);
        assert_eq!(party.completed_steps(), 2);
        assert_eq!(party.total_steps(), 3);
        let _ = &mut world;
    }

    #[test]
    fn waiting_steps_do_not_advance() {
        let world = World::new(1);
        let steps = vec![Step::new("never", |_| StepOutcome::Wait)];
        let mut party = ScriptedParty::new(PartyId(1), steps, Strategy::compliant());
        let mut actions = Vec::new();
        party.step(&world, &mut actions);
        assert_eq!(party.completed_steps(), 0);
        assert!(!party.done());
        assert!(actions.is_empty());
    }

    #[test]
    fn progress_steps_emit_without_advancing() {
        let world = World::new(1);
        let steps = vec![Step::new("chatty", |_| StepOutcome::Progress(vec![]))];
        let mut party = ScriptedParty::new(PartyId(1), steps, Strategy::compliant());
        let mut actions = Vec::new();
        party.step(&world, &mut actions);
        party.step(&world, &mut actions);
        assert_eq!(party.completed_steps(), 0);
        assert!(!party.done());
    }

    #[test]
    fn scheduled_parties_stop_once_their_scripts_are_done() {
        let mut world = World::new(1);
        world.add_chain("a");
        let mut parties = vec![ScriptedParty::new(
            PartyId(0),
            vec![Step::new("noop", |_| StepOutcome::Complete(vec![]))],
            Strategy::compliant(),
        )];
        let tally = Scheduler::new(10).run(&mut world, &mut parties);
        assert_eq!(tally.rounds, 1);
    }

    #[test]
    fn stateful_steps_carry_their_memo_across_forks() {
        let world = World::new(1);
        let steps = vec![Step::stateful("memo", |memo, _| {
            memo.done.insert(PartyId(9));
            StepOutcome::Progress(vec![])
        })];
        let mut party = ScriptedParty::new(PartyId(0), steps, Strategy::compliant());
        let mut actions = Vec::new();
        party.step(&world, &mut actions);
        let fork = party.fork(Strategy::stop_after(0));
        assert!(fork.done(), "fork adopts the new budget");
        assert!(fork.steps[0].memo.done.contains(&PartyId(9)), "fork carries the memo");
        assert!(format!("{:?}", fork.steps[0]).contains("memo"));
    }
}
