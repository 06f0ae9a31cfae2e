//! Scripted parties, deviation strategies, and the checkpoint/resume
//! machinery behind prefix-sharing sweeps.
//!
//! A protocol role is expressed as an ordered list of [`Step`]s. In every
//! synchronous round the party examines the world; the current step either
//! waits (its trigger has not been observed yet), makes partial progress, or
//! completes. A *sore loser* is modelled with [`Strategy::stop_after`]: the
//! party executes its first `k` steps faithfully and then stops
//! participating entirely — exactly the deviation class the paper's threat
//! model allows, since contracts reject malformed or mistimed calls anyway.
//!
//! # Deviation trees
//!
//! `StopAfter` deviations share long identical prefixes: a party that
//! stops after `k` steps behaves *identically* to a compliant party until
//! the first round it would have emitted an action past its budget. A
//! [`DeviationTree`] exploits this: it executes the all-compliant run
//! once, snapshots the world and every party's script state at each
//! executed round (compressing provably pure-wait stretches into clock
//! offsets), and then [`DeviationTree::resume`]s any deviation profile
//! from the snapshot at its divergence round instead of replaying the
//! shared prefix from scratch. Because the resumed tail is driven by the
//! exact same round primitive ([`chainsim::run_round`]) over forked
//! copies of the exact same party state, the resumed run is bit-for-bit
//! identical to a from-scratch execution of the profile — pinned by
//! `modelcheck`'s differential tests against its replay-oracle sweeps.
//!
//! # Protocols
//!
//! A scripted protocol implements [`Protocol`] once: setup, scripts, round
//! budget, final-state capture and judgement. [`Protocol::run`] runs a
//! profile from scratch; a [`Prefix`] records the compliant run once and
//! resumes every profile from its [`DeviationTree`] checkpoint. Both paths
//! share the capture and the judge, so their reports are identical.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use chainsim::{run_round_with, Action, Actor, PartyId, RoundBuffers, Time, World, WorldSnapshot};
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
    /// Returns `true` if this profile can delay at least one emission, i.e.
    /// behaves differently from [`Timing::Eager`] on some script.
    pub fn may_delay_any(&self) -> bool {
        match self {
            Timing::Eager => false,
            Timing::Procrastinate => true,
            Timing::Delay(vector) => !vector.is_zero(),
        }
    }

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
    /// idempotent) memo effects. Resume tails use the hint to fast-forward
    /// the clock over rounds in which **every** actor pure-waits and
    /// nothing was emitted — rounds whose only observable effect is the
    /// clock tick. Steps unsure of the guarantee must return plain `Wait`,
    /// which disables fast-forwarding for that round.
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
/// clones a deviation tree forks; its mutable state is an explicit
/// [`StepMemo`] that clones with the step.
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
    /// the fork continues from exactly this party's current position. Used
    /// by [`DeviationTree::resume`] to turn a recorded compliant party
    /// into the deviating (or still-compliant) party of a tail run.
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

    /// The wake hint of this party's most recent evaluation (see
    /// [`ScriptedParty::wake`]); the clock cannot change its behaviour
    /// strictly before the returned time.
    fn wake_hint(&self) -> Option<Time> {
        if self.done() {
            Some(Time::MAX)
        } else {
            self.wake
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
}

/// Runs a set of scripted parties to quiescence.
///
/// This is a thin wrapper over [`chainsim::Scheduler`] with a generous round
/// budget: protocols define absolute deadlines, so `max_rounds` only needs
/// to exceed the final deadline.
pub fn run_parties(
    world: &mut World,
    mut parties: Vec<ScriptedParty>,
    max_rounds: u64,
) -> chainsim::RunReport {
    chainsim::Scheduler::new(max_rounds).run_actors(world, &mut parties)
}

// ---------------------------------------------------------------------------
// Deviation-tree recording and resumption.
// ---------------------------------------------------------------------------

/// A recorded checkpoint of the compliant run at the start of one round.
struct PrefixCheckpoint {
    /// The world state at the start of that round.
    world: WorldSnapshot,
    /// Every party's script state at the start of that round.
    parties: Vec<ScriptedParty>,
    /// Failed actions accumulated over the rounds before this checkpoint.
    failures: usize,
}

/// What the compliant run observed about one party, for divergence
/// computation.
#[derive(Clone, Debug, Default)]
struct PartyRecord {
    /// Round of each step completion (`completions[c]` = round of the
    /// `c+1`-th completion).
    completions: Vec<u64>,
    /// `(round, completed-count at round start)` for every round in which
    /// the party emitted at least one action.
    emissions: Vec<(u64, usize)>,
    /// First round at whose start the party reported `done()`, if any.
    done_round: Option<u64>,
}

/// Totals of a run resumed from a [`DeviationTree`]: prefix rounds and
/// failures plus the live tail's. Identical to what a from-scratch
/// [`run_parties`] of the same profile reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResumedRun {
    /// Synchronous rounds executed (prefix + tail).
    pub rounds: usize,
    /// Rejected actions (prefix + tail).
    pub failed_actions: usize,
    /// The divergence round this resume forked from. Two zero-tail resumes
    /// with the same key end in bit-identical final states, which protocol
    /// layers exploit to cache derived outcomes per checkpoint.
    pub state_key: u64,
    /// `true` when the resume executed zero tail rounds: the final state
    /// is exactly the forked checkpoint, a pure function of `state_key`.
    pub zero_tail: bool,
}

/// Advances the clock over the pure-wait rounds ahead: if every live actor
/// guarantees pure waiting until some wake time, skips (and returns the
/// count of) the rounds that start strictly before the earliest wake,
/// bounded by `budget`. Returns `None` (and leaves the world untouched)
/// when any actor withholds the guarantee or no round is skippable.
fn pure_wait_rounds(actors: &[ScriptedParty], world: &mut World, budget: u64) -> Option<u64> {
    let earliest_wake = actors
        .iter()
        .try_fold(Time::MAX, |wake, actor| actor.wake_hint().map(|hint| wake.min(hint)))?;
    let delta = world.delta_blocks().max(1);
    let now = world.now();
    if earliest_wake <= now {
        return None;
    }
    // Rounds starting strictly before the wake time are pure waits.
    let skippable = (earliest_wake - now).saturating_sub(1) / delta;
    let skip = skippable.min(budget);
    if skip == 0 {
        return None;
    }
    world.advance_blocks(skip * delta);
    Some(skip)
}

/// The recorded all-compliant execution of one protocol configuration,
/// checkpointed at the start of every *executed* round (compressed
/// pure-wait stretches borrow the checkpoint that precedes them).
///
/// A `StopAfter(k)` deviator behaves identically to its compliant self
/// until it has completed `k` steps; after that it emits nothing and
/// reports `done()`. The **world** trajectory of a deviation profile
/// therefore diverges from the compliant one only at the earliest of:
///
/// * the first round in which some deviator, already past its budget,
///   would have emitted an action (the action is withheld), or
/// * the first round at which *every* party of the profile is done —
///   deviators are done earlier than their compliant selves, so the
///   scheduler may stop the run while the compliant one kept idling.
///
/// [`DeviationTree::resume`] restores the snapshot at that round, forks
/// every recorded party under its profile strategy, and drives the tail
/// with the shared round primitive ([`chainsim::run_round`]) — making the
/// resumed run bit-for-bit identical to a from-scratch execution (pinned by
/// the replay-oracle differential tests in `modelcheck`). Profiles whose
/// stop-points are never observably hit resume at the terminal checkpoint
/// and execute zero tail rounds; protocol layers cache their derived
/// outcomes per checkpoint via [`ResumedRun::state_key`].
pub struct DeviationTree {
    /// Checkpoints keyed by the round whose start they capture; the first
    /// is round 0, the last the terminal state. Rounds inside a compressed
    /// pure-wait stretch have no entry of their own: their state is the
    /// preceding checkpoint plus clock ticks (see
    /// [`DeviationTree::record`]).
    checkpoints: BTreeMap<u64, PrefixCheckpoint>,
    records: BTreeMap<PartyId, PartyRecord>,
    /// Rounds the compliant run executed.
    rounds: u64,
    /// The compliant run's round budget; resumed tails inherit the rest.
    max_rounds: u64,
}

impl fmt::Debug for DeviationTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DeviationTree")
            .field("checkpoints", &self.checkpoints.len())
            .field("rounds", &self.rounds)
            .finish()
    }
}

impl DeviationTree {
    /// Executes and records the all-compliant run of `parties` (which must
    /// have been built with [`Strategy::compliant()`] budgets) inside
    /// `world`, checkpointing the start of every round.
    ///
    /// On return, `world` holds the compliant run's final state.
    pub fn record(world: &mut World, parties: Vec<ScriptedParty>, max_rounds: u64) -> Self {
        let mut parties = parties;
        let mut records: BTreeMap<PartyId, PartyRecord> =
            parties.iter().map(|p| (p.party, PartyRecord::default())).collect();
        let mut checkpoints: BTreeMap<u64, PrefixCheckpoint> = BTreeMap::new();
        let mut buffers = RoundBuffers::default();
        let mut failures = 0usize;
        let mut round = 0u64;
        loop {
            for party in &parties {
                let record = records.get_mut(&party.party).expect("records has every party");
                if party.done() && record.done_round.is_none() {
                    record.done_round = Some(round);
                }
            }
            checkpoints.entry(round).or_insert_with(|| PrefixCheckpoint {
                world: world.snapshot(),
                parties: parties.clone(),
                failures,
            });
            if round >= max_rounds || parties.iter().all(|p| p.done()) {
                break;
            }
            let before: Vec<usize> = parties.iter().map(ScriptedParty::completed_steps).collect();
            let trace = run_round_with(world, &mut parties, &mut buffers);
            failures += trace.outcomes.iter().filter(|o| !o.is_ok()).count();
            let mut any_completion = false;
            for (party, was_completed) in parties.iter().zip(before) {
                let record = records.get_mut(&party.party).expect("records has every party");
                if party.completed_steps() > was_completed {
                    record.completions.push(round);
                    any_completion = true;
                }
                if trace.outcomes.iter().any(|o| o.party == party.party) {
                    record.emissions.push((round, was_completed));
                }
            }
            round += 1;
            // Compress pure-wait stretches: when the round changed nothing
            // but the clock (no actions, no step completions) and every
            // live actor guarantees pure waiting, the coming rounds are all
            // `this checkpoint + k clock ticks` — skip executing (and
            // snapshotting) them. `restore_at` reconstructs any of them
            // exactly by advancing the clock from the last checkpoint.
            if trace.outcomes.is_empty() && !any_completion && !parties.iter().all(|p| p.done()) {
                if let Some(skip) = pure_wait_rounds(&parties, world, max_rounds - round) {
                    round += skip;
                }
            }
        }
        DeviationTree { checkpoints, records, rounds: round, max_rounds }
    }

    /// Rounds the compliant run executed.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// The number of recorded checkpoints: one per *executed* round of the
    /// compliant run (compressed pure-wait stretches share the checkpoint
    /// that precedes them).
    pub fn checkpoints(&self) -> usize {
        self.checkpoints.len()
    }

    /// The first round at which the profile's trajectory can differ from
    /// the compliant one — the profile's earliest *non-compliant action*,
    /// not merely its first withheld emission — clamped to the terminal
    /// round, plus whether the resumed run would execute zero tail rounds
    /// there (see [`ResumedRun::zero_tail`]).
    ///
    /// Per party, the earliest possible effect of each deviation axis:
    ///
    /// * `stop_after(k)` — the first recorded emission at or past the
    ///   budget (the withheld action), plus an earlier all-done round;
    /// * `Procrastinate` / non-zero `Delay` vectors — the party's first
    ///   recorded emission at a step the profile delays (the delaying party
    ///   may hold exactly that action; before it, the party acts eagerly,
    ///   since a zero entry skips both the peek and the hold);
    /// * `Garbage { step }` — the step's first recorded emission (the
    ///   garbage volley rides on it; the party's own progress is
    ///   unchanged);
    /// * `Crash { step }` / `Outage { step, .. }` — the round the party
    ///   first reaches the crash step (the outage starts there).
    ///
    /// Procrastination and crashes alter the party's *later* behaviour in
    /// ways the compliant record cannot predict, so they also disable the
    /// all-done shortcut for the profile (conservative: the tail is simply
    /// executed).
    fn divergence_of(&self, strategy_of: &dyn Fn(PartyId) -> Strategy) -> (u64, bool) {
        let mut divergence = self.rounds;
        // The deviating run ends once every party is done; deviators are
        // done earlier than their compliant selves, so the run may stop at
        // a round the compliant run idled through.
        let mut all_done_from = 0u64;
        let mut every_party_finishes = true;
        for (party, record) in &self.records {
            let strategy = strategy_of(*party);
            // Axes whose downstream effect the compliant record cannot
            // predict: resume from their first possible effect and skip the
            // all-done shortcut.
            let mut unpredictable = false;
            if strategy.timing.may_delay_any() && !record.emissions.is_empty() {
                if let Some(&(round, _)) =
                    record.emissions.iter().find(|(_, step)| strategy.timing.delays_step(*step))
                {
                    divergence = divergence.min(round);
                }
                unpredictable = true;
            }
            match strategy.fault {
                Fault::None => {}
                Fault::Garbage { step } => {
                    if let Some(&(round, _)) =
                        record.emissions.iter().find(|(_, completed)| *completed == step)
                    {
                        divergence = divergence.min(round);
                    }
                }
                Fault::Crash { step } | Fault::Outage { step, .. } => {
                    let reached = if step == 0 {
                        Some(0)
                    } else if step <= record.completions.len() {
                        Some(record.completions[step - 1] + 1)
                    } else {
                        // The compliant run never completed the step before
                        // the crash point: the outage never starts.
                        None
                    };
                    if let Some(round) = reached {
                        divergence = divergence.min(round);
                        unpredictable = true;
                    }
                }
            }
            let done_from = match strategy.stop_after {
                None => record.done_round,
                Some(k) => {
                    // First withheld emission: the earliest round where the
                    // compliant party, with `k` or more steps already
                    // completed, emitted an action the deviator would not.
                    if let Some(&(round, _)) =
                        record.emissions.iter().find(|(_, completed)| *completed >= k)
                    {
                        divergence = divergence.min(round);
                    }
                    if k == 0 {
                        Some(0)
                    } else if k <= record.completions.len() {
                        Some(record.completions[k - 1] + 1)
                    } else {
                        // Budget above everything the compliant run ever
                        // completed: the deviator never hits it.
                        record.done_round
                    }
                }
            };
            if unpredictable {
                every_party_finishes = false;
            } else {
                match done_from {
                    Some(round) => all_done_from = all_done_from.max(round),
                    None => every_party_finishes = false,
                }
            }
        }
        if every_party_finishes {
            divergence = divergence.min(all_done_from);
        }
        let zero_tail =
            (every_party_finishes && divergence == all_done_from) || divergence >= self.max_rounds;
        (divergence, zero_tail)
    }

    /// Resumes the profile described by `strategy_of` from its divergence
    /// checkpoint: restores the world, forks every recorded party under its
    /// profile strategy, and drives the tail with the shared round
    /// primitive.
    ///
    /// The resulting world state, rounds and failure counts are identical
    /// to a from-scratch run of the same profile. Hashkey memos computed by
    /// the tail are absorbed back into the checkpoint (a pure cache), so
    /// later scenarios resuming from the same checkpoint skip re-signing.
    pub fn resume(
        &mut self,
        world: &mut World,
        strategy_of: &dyn Fn(PartyId) -> Strategy,
    ) -> ResumedRun {
        let (divergence, zero_tail) = self.divergence_of(strategy_of);
        let (&checkpoint_round, checkpoint) = self
            .checkpoints
            .range(..=divergence)
            .next_back()
            .expect("round 0 is always checkpointed");
        world.restore(&checkpoint.world);
        if divergence > checkpoint_round {
            // The divergence round lies inside a compressed pure-wait
            // stretch: its state is the checkpoint plus clock ticks.
            world.advance_blocks((divergence - checkpoint_round) * world.delta_blocks());
        }
        let mut actors: Vec<ScriptedParty> =
            checkpoint.parties.iter().map(|p| p.fork(strategy_of(p.party))).collect();
        let mut failures = checkpoint.failures;
        let mut buffers = RoundBuffers::default();
        let mut rounds = divergence;
        while rounds < self.max_rounds {
            if actors.iter().all(|a| a.done()) {
                break;
            }
            let trace = run_round_with(world, &mut actors, &mut buffers);
            failures += trace.outcomes.iter().filter(|o| !o.is_ok()).count();
            rounds += 1;
            // Fast-forward: when the round emitted nothing and every live
            // actor gave a pure-wait hint, the coming rounds change only
            // the clock — jump it to the earliest wake time. The skipped
            // rounds still count (a from-scratch run executes them as
            // empty rounds), so reports stay byte-identical.
            if trace.outcomes.is_empty() && !actors.iter().all(|a| a.done()) {
                if let Some(skip) =
                    pure_wait_rounds(&actors, world, self.max_rounds.saturating_sub(rounds))
                {
                    rounds += skip;
                }
            }
        }
        let checkpoint = self
            .checkpoints
            .get_mut(&checkpoint_round)
            .expect("checkpoint existence checked above");
        for (stored, ran) in checkpoint.parties.iter_mut().zip(&actors) {
            stored.absorb_hashkey_memos(ran);
        }
        ResumedRun {
            rounds: rounds as usize,
            failed_actions: failures,
            state_key: divergence,
            zero_tail,
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
/// Every scripted run goes through one of two paths built on these methods:
/// [`Protocol::run`] executes a profile from scratch (the one-off path and
/// the replay oracle), and a [`Prefix`] resumes it from the recorded
/// compliant run. Both capture the final state with [`Protocol::capture`]
/// and judge it with [`Protocol::judge`], so their reports are identical.
pub trait Protocol {
    /// What setup leaves for scripting, capture and judging: contract
    /// addresses, asset ids, pre-run balances.
    type Setup;
    /// The final state a report is judged from. A capture must not depend
    /// on the strategies: a [`Prefix`] judges every profile whose run ends
    /// in the same state from one capture.
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
        let parties = self.script(&setup, profile);
        let report = run_parties(world, parties, self.max_rounds());
        let capture = self.capture(world, &setup, report.rounds(), report.failures().len());
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

/// The recorded compliant run of one [`Protocol`], shared by every profile
/// run through it: each resumes from its divergence checkpoint of a
/// [`DeviationTree`], and profiles that run no tail share one capture per
/// checkpoint. Reports are identical to [`Protocol::run`]'s.
pub struct Prefix<P: Protocol> {
    protocol: P,
    setup: P::Setup,
    tree: DeviationTree,
    /// Captures of zero-tail resumes, keyed by divergence round: such a
    /// run ends exactly in its checkpoint's state (see
    /// [`ResumedRun::zero_tail`]), so the capture is a pure function of the
    /// key.
    zero_tail: BTreeMap<u64, P::Capture>,
}

impl<P: Protocol> fmt::Debug for Prefix<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Prefix")
            .field("tree", &self.tree)
            .field("zero_tail", &self.zero_tail.len())
            .finish()
    }
}

impl<P: Protocol> Prefix<P> {
    /// Sets `protocol` up inside `world` and records its all-compliant run.
    pub fn record(protocol: P, world: &mut World) -> Self {
        let setup = protocol.setup(world);
        let parties = protocol.script(&setup, &|_| Strategy::compliant());
        let tree = DeviationTree::record(world, parties, protocol.max_rounds());
        Prefix { protocol, setup, tree, zero_tail: BTreeMap::new() }
    }

    /// Runs `profile` inside `world` by resuming the recorded run.
    pub fn run(&mut self, profile: Profile<'_>, world: &mut World) -> P::Report {
        let Prefix { protocol, setup, tree, zero_tail } = self;
        let resumed = tree.resume(world, profile);
        let capture =
            |world: &World| protocol.capture(world, setup, resumed.rounds, resumed.failed_actions);
        if resumed.zero_tail {
            let cached = zero_tail.entry(resumed.state_key).or_insert_with(|| capture(world));
            return protocol.judge(setup, cached, profile);
        }
        protocol.judge(setup, &capture(world), profile)
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
    fn delaying_one_step_resumes_at_that_steps_first_emission() {
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
        assert_eq!(resumed.state_key, 6, "eager until step 2 first emits, in round 6");
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
    fn run_parties_terminates() {
        let mut world = World::new(1);
        world.add_chain("a");
        let parties = vec![ScriptedParty::new(
            PartyId(0),
            vec![Step::new("noop", |_| StepOutcome::Complete(vec![]))],
            Strategy::compliant(),
        )];
        let report = run_parties(&mut world, parties, 10);
        assert!(report.rounds() <= 10);
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

    /// A three-step script against a counter world: the prefix recorder's
    /// checkpoints land on round 0, each post-completion round, and the
    /// terminal round; resumption reproduces from-scratch runs exactly.
    #[test]
    fn compliant_prefix_resumes_identically_to_scratch_runs() {
        fn build_parties() -> Vec<ScriptedParty> {
            // Party 0 completes a step every round; party 1 waits one round
            // between completions (so completions land on distinct rounds).
            let fast = vec![
                Step::new("f0", |_| StepOutcome::Complete(vec![])),
                Step::new("f1", |_| StepOutcome::Complete(vec![])),
            ];
            let slow = vec![
                Step::new("s0", |w| {
                    if w.now().height() >= 1 {
                        StepOutcome::Complete(vec![])
                    } else {
                        StepOutcome::Wait
                    }
                }),
                Step::new("s1", |w| {
                    if w.now().height() >= 3 {
                        StepOutcome::Complete(vec![])
                    } else {
                        StepOutcome::Wait
                    }
                }),
            ];
            vec![
                ScriptedParty::new(PartyId(0), fast, Strategy::compliant()),
                ScriptedParty::new(PartyId(1), slow, Strategy::compliant()),
            ]
        }
        fn fresh_world() -> World {
            let mut world = World::new(1);
            world.add_chain("a");
            world
        }

        let mut world = fresh_world();
        let mut prefix = DeviationTree::record(&mut world, build_parties(), 10);
        assert!(prefix.checkpoints() >= 3, "round 0, post-completion rounds, terminal");

        for stop in 0..=2usize {
            for deviator in [PartyId(0), PartyId(1)] {
                let strategy_of = move |p: PartyId| {
                    if p == deviator {
                        Strategy::stop_after(stop)
                    } else {
                        Strategy::compliant()
                    }
                };
                let resumed = prefix.resume(&mut world, &strategy_of);

                // From-scratch oracle with the same strategies.
                let mut scratch = fresh_world();
                let parties: Vec<ScriptedParty> = build_parties()
                    .into_iter()
                    .map(|p| {
                        let s = strategy_of(p.party);
                        p.fork(s)
                    })
                    .collect();
                let oracle = run_parties(&mut scratch, parties, 10);
                assert_eq!(
                    resumed.rounds,
                    oracle.rounds(),
                    "deviator {deviator} stop {stop}: rounds diverged"
                );
                assert_eq!(resumed.failed_actions, oracle.failures().len());
                assert_eq!(world.now(), scratch.now(), "clock must match after resume");
            }
        }
    }
}
