//! The multi-party arc escrow contract (§7, also used by the broker of §8).

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use chainsim::{
    Amount, AssetId, CallEnv, Contract, ContractError, Disposition, PartyId, StateMachine,
    StateSpec, Time, TimeWindow, TransitionSpec,
};
use cryptosim::{sha256, Digest, Hashlock, Secret};
use serde::{Deserialize, Serialize};
use swapgraph::{premiums, Digraph};

use crate::hashkey::{Hashkey, PartyKeys};

/// Lifecycle of a premium slot (escrow premium or a per-leader redemption
/// premium).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum PremiumSlotState {
    /// Not deposited yet.
    NotDeposited,
    /// Held by the contract.
    Held,
    /// Refunded to its depositor.
    Refunded,
    /// Paid to the counterparty as compensation.
    PaidToCounterparty,
}

/// Lifecycle of the arc's principal.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum PrincipalState {
    /// Not escrowed yet.
    NotEscrowed,
    /// Escrowed and held by the contract.
    Held,
    /// Redeemed by the receiver (all hashkeys presented in time).
    Redeemed,
    /// Refunded to the sender after timeout.
    Refunded,
}

/// Deadlines of an [`ArcEscrow`], mirroring the four phases of the hedged
/// multi-party protocol.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArcDeadlines {
    /// Phase 1: the sender's escrow premium must be deposited before this height.
    pub escrow_premium_deadline: Time,
    /// Phase 2: the receiver's redemption premiums must be deposited before this height.
    pub redemption_premium_deadline: Time,
    /// Phase 3: the sender's asset must be escrowed before this height.
    pub asset_escrow_deadline: Time,
    /// Phase 4: a hashkey with path length `ℓ` is accepted strictly before
    /// `hashkey_timeout_base + ℓ · delta_blocks`.
    pub hashkey_timeout_base: Time,
    /// The synchrony bound Δ in blocks.
    pub delta_blocks: u64,
    /// After this height, [`ArcEscrowMsg::Settle`] distributes whatever is
    /// still held.
    pub final_deadline: Time,
}

impl ArcDeadlines {
    /// The latest height (exclusive) at which a hashkey with the given path
    /// length is still accepted.
    pub fn hashkey_deadline(&self, path_len: usize) -> Time {
        self.hashkey_timeout_base.plus(path_len as u64 * self.delta_blocks)
    }

    /// The latest height (exclusive) at which a redemption premium whose
    /// path has the given length is still accepted: one Δ per hop past the
    /// escrow-premium deadline, capped by the phase-wide
    /// [`ArcDeadlines::redemption_premium_deadline`].
    ///
    /// Premiums propagate outward from each leader exactly like hashkeys
    /// propagate in phase 4, so their deadlines carry the same per-hop
    /// structure. An earlier revision accepted every path until the shared
    /// phase deadline, which had a deadline-edge hole: a leader depositing
    /// its own (path-length-1) premium at the last legal instant left
    /// followers zero rounds to extend the path, their extensions bounced,
    /// the half-activated premium web then forfeited a *compliant* sender's
    /// escrow premium to the deviator. Giving the length-`ℓ` path the
    /// deadline `escrow_premium_deadline + ℓ·Δ` restores the paper's
    /// schedule: every hop — including a last-instant one — leaves the next
    /// hop a full Δ, and the longest simple path (`ℓ = n`) still lands by
    /// the phase deadline `2nΔ`.
    pub fn redemption_path_deadline(&self, path_len: usize) -> Time {
        self.redemption_premium_deadline
            .min(self.escrow_premium_deadline.plus(path_len as u64 * self.delta_blocks))
    }
}

/// The tag under which a deal's verified hashkey presentations are
/// memoised, shared by every [`ArcEscrow`] of one deal.
///
/// A party presents the same extended hashkey on each of its incoming arcs,
/// and each arc contract must verify it independently — chain-signature
/// verification is the hottest cryptographic work in a sweep. The memo key
/// `(deal tag, receiver, leader, chain tag)` is sound: the chain tag binds
/// the whole signature chain, its path and its secret under collision
/// resistance (see [`Hashkey::chain_tag`]), and the deal tag is a SHA-256
/// digest of the only other verification inputs, the deal's digraph arcs
/// and key table. Two deals that agree on both accept exactly the same
/// presentations, so they may share entries; deals that differ in either,
/// such as the same leaders over different digraphs, where a path may be
/// valid in one digraph only, never satisfy each other's verifications. On
/// a memo hit the contract still re-binds the carried secret to its
/// hashlock and applies its own deadline checks.
///
/// The verified set itself lives in the **per-world** memo store
/// ([`chainsim::SimCaches`]), keyed by that content: sweep engines give
/// each worker thread its own pooled world, so every worker warms a
/// private, lock-free table. Earlier revisions shared one
/// `Arc<Mutex<BTreeSet<..>>>` across all workers, and that lock sat on the
/// hottest verification path — flat 1→2-thread scaling was the measurable
/// result.
#[derive(Clone, Debug)]
pub struct HashkeyVerifyCache {
    deal_tag: Digest,
}

/// The per-world verified set: `(deal tag, receiver, leader, chain tag)`.
#[derive(Debug, Default)]
struct VerifiedHashkeys(BTreeSet<(Digest, PartyId, PartyId, Digest)>);

impl HashkeyVerifyCache {
    /// The tag of the deal over `digraph` whose parties sign with `keys`.
    pub fn for_deal(digraph: &Digraph, keys: &PartyKeys) -> Self {
        let mut bytes = b"arc-escrow/verify".to_vec();
        bytes.extend_from_slice(&(digraph.arc_count() as u64).to_be_bytes());
        for (u, v) in digraph.arcs() {
            bytes.extend_from_slice(&u.to_be_bytes());
            bytes.extend_from_slice(&v.to_be_bytes());
        }
        for (party, key) in keys.iter() {
            bytes.extend_from_slice(&party.0.to_be_bytes());
            bytes.extend_from_slice(key.digest().as_bytes());
        }
        HashkeyVerifyCache { deal_tag: sha256(&bytes) }
    }

    fn key(
        &self,
        receiver: PartyId,
        leader: PartyId,
        chain_tag: Digest,
    ) -> (Digest, PartyId, PartyId, Digest) {
        (self.deal_tag, receiver, leader, chain_tag)
    }
}

/// Construction parameters for an [`ArcEscrow`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ArcEscrowParams {
    /// The asset sender `u`.
    pub sender: PartyId,
    /// The asset receiver `v`.
    pub receiver: PartyId,
    /// Asset class of the principal transferred on this arc.
    pub asset: AssetId,
    /// Amount of the principal.
    pub amount: Amount,
    /// Asset class used for premiums (the chain's native currency).
    pub premium_asset: AssetId,
    /// The base premium `p`.
    pub base_premium: Amount,
    /// The escrow premium `E(u, v)` owed by the sender.
    pub escrow_premium: Amount,
    /// The hashlock vector: one `(leader, hashlock)` pair per leader.
    ///
    /// Shared (`Arc`) with every other arc of the same deal: a deal
    /// publishes one escrow per arc, and cloning the full hashlock vector,
    /// digraph and key table per arc dominated setup cost in sweeps.
    pub hashlocks: Arc<Vec<(PartyId, Hashlock)>>,
    /// The swap digraph (public protocol agreement), with party ids as
    /// vertices. Shared across the deal's arc escrows.
    pub digraph: Arc<Digraph>,
    /// The public keys of all participants. Shared across the deal's arc
    /// escrows.
    pub keys: Arc<PartyKeys>,
    /// Phase deadlines.
    pub deadlines: ArcDeadlines,
    /// The tag of the deal's verified hashkey presentations, built from
    /// [`digraph`](ArcEscrowParams::digraph) and
    /// [`keys`](ArcEscrowParams::keys).
    pub verify_cache: HashkeyVerifyCache,
    /// The Equation-(1) evaluator of [`digraph`](ArcEscrowParams::digraph),
    /// shared across the deal's arcs so its compact adjacency tables are
    /// derived once rather than on every premium deposit.
    pub premium_evaluator: Arc<premiums::RedemptionPremiumEvaluator>,
}

/// Messages accepted by an [`ArcEscrow`].
#[derive(Clone, Debug)]
pub enum ArcEscrowMsg {
    /// The sender deposits the escrow premium `E(u, v)` (phase 1).
    DepositEscrowPremium,
    /// The receiver deposits the redemption premium for `leader`'s hashkey
    /// along `path` (phase 2). The contract computes and charges the
    /// Equation-(1) amount for that path.
    DepositRedemptionPremium {
        /// The leader whose hashkey this premium protects.
        leader: PartyId,
        /// The path from the receiver to that leader.
        path: Vec<PartyId>,
    },
    /// The sender escrows the principal (phase 3). The escrow premium, if
    /// held, is refunded immediately.
    EscrowAsset,
    /// Anyone presents a hashkey (phase 4). The corresponding redemption
    /// premium is refunded, and when every leader's hashkey has been
    /// presented the principal is redeemed to the receiver.
    PresentHashkey {
        /// The hashkey to present.
        hashkey: Hashkey,
    },
    /// Anyone applies whatever timeout rules are currently due.
    Settle,
}

/// A per-leader redemption premium slot.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct RedemptionSlot {
    state: PremiumSlotState,
    amount: Amount,
    path: Vec<PartyId>,
}

/// The escrow contract for one arc `(u, v)` of a multi-party swap.
///
/// The contract holds up to three kinds of value:
///
/// * the **principal** (the asset `u` transfers to `v`),
/// * the sender's **escrow premium** `E(u, v)`, awarded to `v` if the
///   principal is not escrowed in time *and* the premium has been activated
///   (all redemption premiums were deposited), refunded to `u` otherwise,
/// * one **redemption premium** per leader, deposited by `v`, refunded when
///   `v` presents that leader's hashkey in time and awarded to `u` otherwise.
///
/// Besides the three slots' states it keeps only the hashkey presented for
/// each leader, from which parties read the revealed secret.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ArcEscrow {
    params: ArcEscrowParams,
    escrow_premium: PremiumSlotState,
    redemption: BTreeMap<PartyId, RedemptionSlot>,
    principal: PrincipalState,
    presented: BTreeMap<PartyId, Hashkey>,
}

impl ArcEscrow {
    /// Creates a new, unfunded arc escrow.
    pub fn new(params: ArcEscrowParams) -> Self {
        ArcEscrow {
            params,
            escrow_premium: PremiumSlotState::NotDeposited,
            redemption: BTreeMap::new(),
            principal: PrincipalState::NotEscrowed,
            presented: BTreeMap::new(),
        }
    }

    /// The construction parameters.
    pub fn params(&self) -> &ArcEscrowParams {
        &self.params
    }

    /// The escrow premium slot's state.
    pub fn escrow_premium_state(&self) -> PremiumSlotState {
        self.escrow_premium
    }

    /// The redemption premium slot for `leader`, if deposited.
    pub fn redemption_premium_state(&self, leader: PartyId) -> PremiumSlotState {
        self.redemption.get(&leader).map(|s| s.state).unwrap_or(PremiumSlotState::NotDeposited)
    }

    /// The amount held (or once held) in `leader`'s redemption premium slot.
    pub fn redemption_premium_amount(&self, leader: PartyId) -> Amount {
        self.redemption.get(&leader).map(|s| s.amount).unwrap_or(Amount::ZERO)
    }

    /// The path associated with `leader`'s redemption premium, if deposited.
    ///
    /// Counterparties read this to learn which path a premium propagated
    /// along, so they can extend it on their own incoming arcs (the phase-2
    /// distribution rule of §7.1).
    pub fn redemption_premium_path(&self, leader: PartyId) -> Option<&[PartyId]> {
        self.redemption.get(&leader).map(|s| s.path.as_slice())
    }

    /// The principal's state.
    pub fn principal_state(&self) -> PrincipalState {
        self.principal
    }

    /// Returns `true` if `leader`'s hashkey has been presented on this arc.
    pub fn hashkey_presented(&self, leader: PartyId) -> bool {
        self.presented.contains_key(&leader)
    }

    /// The secret revealed for `leader`, if its hashkey has been presented.
    ///
    /// This is how secrets propagate: a party reads them from the public
    /// state of contracts on its outgoing arcs.
    pub fn revealed_secret(&self, leader: PartyId) -> Option<&Secret> {
        self.presented.get(&leader).map(Hashkey::secret)
    }

    /// The full hashkey presented for `leader`, if any.
    ///
    /// Parties read presented hashkeys from contracts on their outgoing
    /// arcs, extend the path with their own signature, and present the
    /// extension on their incoming arcs.
    pub fn presented_hashkey(&self, leader: PartyId) -> Option<&Hashkey> {
        self.presented.get(&leader)
    }

    /// Returns `true` if the escrow premium has been *activated*: every
    /// leader's redemption premium has been deposited on this arc.
    pub fn escrow_premium_activated(&self) -> bool {
        self.params.hashlocks.iter().all(|(leader, _)| self.redemption.contains_key(leader))
    }

    fn hashlock_for(&self, leader: PartyId) -> Option<Hashlock> {
        self.params.hashlocks.iter().find(|(l, _)| *l == leader).map(|(_, h)| *h)
    }

    fn deposit_escrow_premium(&mut self, env: &mut CallEnv<'_>) -> Result<(), ContractError> {
        if env.caller() != self.params.sender {
            return Err(ContractError::Unauthorised { caller: env.caller() });
        }
        if self.escrow_premium != PremiumSlotState::NotDeposited {
            return Err(ContractError::invalid_state("escrow premium already deposited"));
        }
        // The escrow premium compensates the receiver if the asset never
        // shows up; once the principal is escrowed it can serve no
        // purpose — and no disposition rule would ever release it (the
        // escrow-time refund already ran, and settle's disposition only
        // covers the never-escrowed case), so accepting it here would
        // strand the deposit forever. Found by the raw-call fuzz harness.
        // The canary-bugs feature compiles the guard out (and mirrors the
        // resulting stranding edge in `state_spec` below) so `staticcheck`
        // can prove it rediscovers the bug.
        #[cfg(not(feature = "canary-bugs"))]
        if self.principal != PrincipalState::NotEscrowed {
            return Err(ContractError::invalid_state("asset already escrowed"));
        }
        env.ensure_before(self.params.deadlines.escrow_premium_deadline)?;
        env.debit_caller(self.params.premium_asset, self.params.escrow_premium)?;
        self.escrow_premium = PremiumSlotState::Held;
        Ok(())
    }

    fn deposit_redemption_premium(
        &mut self,
        env: &mut CallEnv<'_>,
        leader: PartyId,
        path: &[PartyId],
    ) -> Result<(), ContractError> {
        if env.caller() != self.params.receiver {
            return Err(ContractError::Unauthorised { caller: env.caller() });
        }
        if self.hashlock_for(leader).is_none() {
            return Err(ContractError::invalid_state(format!("{leader} is not a leader")));
        }
        if self.redemption.contains_key(&leader) {
            return Err(ContractError::invalid_state("redemption premium already deposited"));
        }
        // The premium insures the receiver against this leader's hashkey
        // never arriving; once it has been presented the deposit can
        // serve no purpose, and no disposition rule would ever release
        // it (the presentation-time refund already ran, and settle only
        // disposes premiums of never-presented leaders). Found by the
        // raw-call fuzz harness. The canary-bugs feature compiles the
        // guard out (and mirrors the resulting stranding edge in
        // `state_spec` below) so `staticcheck` can prove it rediscovers
        // the bug.
        #[cfg(not(feature = "canary-bugs"))]
        if self.presented.contains_key(&leader) {
            return Err(ContractError::invalid_state("hashkey already presented"));
        }
        env.ensure_before(self.params.deadlines.redemption_path_deadline(path.len()))?;
        // Validate the path: starts at the receiver, ends at the leader, and
        // is a simple path of the swap digraph.
        if path.first() != Some(&self.params.receiver) || path.last() != Some(&leader) {
            return Err(ContractError::hashkey_rejected(
                "redemption premium path must run from the receiver to the leader",
            ));
        }
        let vertices: Vec<u32> = path.iter().map(|p| p.0).collect();
        let valid = self.params.digraph.is_simple_path(self.params.receiver.0, leader.0, &vertices);
        if !valid {
            return Err(ContractError::hashkey_rejected(
                "redemption premium path is not a simple path of the swap digraph",
            ));
        }
        let units = self.params.premium_evaluator.premium(
            &self.params.digraph,
            1,
            &vertices,
            self.params.sender.0,
        );
        let amount = self.params.base_premium.scaled(units);
        env.debit_caller(self.params.premium_asset, amount)?;
        self.redemption.insert(
            leader,
            RedemptionSlot { state: PremiumSlotState::Held, amount, path: path.to_vec() },
        );
        Ok(())
    }

    fn escrow_asset(&mut self, env: &mut CallEnv<'_>) -> Result<(), ContractError> {
        if env.caller() != self.params.sender {
            return Err(ContractError::Unauthorised { caller: env.caller() });
        }
        if self.principal != PrincipalState::NotEscrowed {
            return Err(ContractError::invalid_state("asset already escrowed"));
        }
        env.ensure_before(self.params.deadlines.asset_escrow_deadline)?;
        env.debit_caller(self.params.asset, self.params.amount)?;
        // Lemma 1: the sender's escrow premium is refunded as soon as the
        // asset is escrowed on the arc.
        if self.escrow_premium == PremiumSlotState::Held {
            env.pay_out(self.params.sender, self.params.premium_asset, self.params.escrow_premium)?;
            self.escrow_premium = PremiumSlotState::Refunded;
            env.charge_note();
        }
        self.principal = PrincipalState::Held;
        Ok(())
    }

    fn present_hashkey(
        &mut self,
        env: &mut CallEnv<'_>,
        hashkey: &Hashkey,
    ) -> Result<(), ContractError> {
        let leader = hashkey.leader();
        let hashlock = self
            .hashlock_for(leader)
            .ok_or_else(|| ContractError::invalid_state(format!("{leader} is not a leader")))?;
        if self.presented.contains_key(&leader) {
            return Err(ContractError::invalid_state("hashkey already presented"));
        }
        let deadline = self.params.deadlines.hashkey_deadline(hashkey.path_len());
        env.ensure_before(deadline)?;
        let memo_key =
            self.params.verify_cache.key(self.params.receiver, leader, hashkey.chain_tag());
        let already_verified =
            env.caches().get_or_default::<VerifiedHashkeys>().0.contains(&memo_key);
        if already_verified {
            // The same chain was fully verified on a sibling arc with the
            // same receiver (possibly in an earlier run of this world). The
            // chain tag binds path, leader and chain; only the carried
            // secret must be re-bound to the hashlock.
            if !hashlock.matches(hashkey.secret()) {
                return Err(ContractError::HashlockMismatch);
            }
        } else {
            hashkey.verify(
                env.directory(),
                &self.params.keys,
                &self.params.digraph,
                self.params.receiver,
                &hashlock,
            )?;
            env.caches().get_or_default::<VerifiedHashkeys>().0.insert(memo_key);
        }
        env.charge_note();
        // Lemma 1: the receiver's redemption premium for this hashkey is
        // refunded as soon as the hashkey is presented on the arc.
        let refund =
            self.redemption.get(&leader).filter(|slot| slot.state == PremiumSlotState::Held);
        if let Some(slot) = refund {
            env.pay_out(self.params.receiver, self.params.premium_asset, slot.amount)?;
        }
        // Redeem the principal once every leader's hashkey has arrived,
        // this one included.
        let redeem = self.principal == PrincipalState::Held
            && self
                .params
                .hashlocks
                .iter()
                .all(|(l, _)| *l == leader || self.presented.contains_key(l));
        if redeem {
            env.pay_out(self.params.receiver, self.params.asset, self.params.amount)?;
            env.charge_note();
        }
        // Every payout landed: record the presentation and its effects.
        if refund.is_some() {
            self.redemption.get_mut(&leader).expect("refunded above").state =
                PremiumSlotState::Refunded;
        }
        if redeem {
            self.principal = PrincipalState::Redeemed;
        }
        self.presented.insert(leader, hashkey.clone());
        Ok(())
    }

    fn settle(&mut self, env: &mut CallEnv<'_>) -> Result<(), ContractError> {
        let now = env.now();
        let p = &self.params;

        // Escrow premium disposition once the asset-escrow deadline passed:
        // to the receiver if activated, else back to the sender.
        let premium = (self.escrow_premium == PremiumSlotState::Held
            && now.has_reached(p.deadlines.asset_escrow_deadline)
            && self.principal == PrincipalState::NotEscrowed)
            .then(|| {
                if self.escrow_premium_activated() {
                    (p.receiver, PremiumSlotState::PaidToCounterparty)
                } else {
                    (p.sender, PremiumSlotState::Refunded)
                }
            });
        if let Some((to, _)) = premium {
            env.pay_out(to, p.premium_asset, p.escrow_premium)?;
            env.charge_note();
        }

        // After the final deadline, redemption premiums for hashkeys that
        // never arrived go to the sender, and so does a principal that was
        // never redeemed.
        let final_due = now.has_reached(p.deadlines.final_deadline);
        let forfeit = |leader: &PartyId, slot: &RedemptionSlot| {
            final_due
                && slot.state == PremiumSlotState::Held
                && !self.presented.contains_key(leader)
        };
        let mut forfeits = false;
        for (leader, slot) in &self.redemption {
            if forfeit(leader, slot) {
                env.pay_out(p.sender, p.premium_asset, slot.amount)?;
                env.charge_note();
                forfeits = true;
            }
        }
        let refund_principal = final_due && self.principal == PrincipalState::Held;
        if refund_principal {
            env.pay_out(p.sender, p.asset, p.amount)?;
            env.charge_note();
        }

        if premium.is_none() && !forfeits && !refund_principal {
            return Err(ContractError::invalid_state("nothing to settle yet"));
        }
        // Every payout landed: record the dispositions.
        if let Some((_, state)) = premium {
            self.escrow_premium = state;
        }
        if forfeits {
            for (leader, slot) in self.redemption.iter_mut() {
                if forfeit(leader, slot) {
                    slot.state = PremiumSlotState::PaidToCounterparty;
                }
            }
        }
        if refund_principal {
            self.principal = PrincipalState::Refunded;
        }
        Ok(())
    }
}

impl Contract for ArcEscrow {
    fn type_name(&self) -> &'static str {
        "ArcEscrow"
    }

    fn clone_box(&self) -> Box<dyn Contract> {
        Box::new(self.clone())
    }

    fn handle(&mut self, env: &mut CallEnv<'_>, msg: &dyn Any) -> Result<(), ContractError> {
        let msg = msg.downcast_ref::<ArcEscrowMsg>().ok_or(ContractError::UnsupportedMessage)?;
        match msg {
            ArcEscrowMsg::DepositEscrowPremium => self.deposit_escrow_premium(env),
            ArcEscrowMsg::DepositRedemptionPremium { leader, path } => {
                self.deposit_redemption_premium(env, *leader, path)
            }
            ArcEscrowMsg::EscrowAsset => self.escrow_asset(env),
            ArcEscrowMsg::PresentHashkey { hashkey } => self.present_hashkey(env, hashkey),
            ArcEscrowMsg::Settle => self.settle(env),
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    // Custody spec. Two machine kinds: the `escrow` machine tracks the
    // principal and the sender's escrow premium (whose lifecycles are
    // coupled: escrowing the asset refunds a held premium, Lemma 1), and
    // one `hashkey[leader]` machine per leader tracks that leader's
    // redemption-premium slot (independent slots, so independent
    // machines). Windows mirror the guards above; the per-hop ladders
    // (`hashkey_deadline(ℓ)`, `redemption_path_deadline(ℓ)`) are
    // over-approximated by their loosest instance — path lengths are
    // bounded by the digraph's vertex count — which is what a sound
    // reachability analysis needs, while the ladder structure itself is
    // checked by the schedule pass over [`ArcDeadlines`].
    fn state_spec(&self) -> Option<StateSpec> {
        let d = &self.params.deadlines;
        let last_hashkey = d.hashkey_deadline(self.params.digraph.vertex_count());
        let escrow = StateMachine::new("escrow", "Init")
            .fund("escrow_premium")
            .fund("principal")
            .transition(
                TransitionSpec::new(
                    "DepositEscrowPremium",
                    "Init",
                    "EpHeld",
                    TimeWindow::before(d.escrow_premium_deadline),
                )
                .deposits("escrow_premium"),
            )
            .transition(
                TransitionSpec::new(
                    "EscrowAsset",
                    "Init",
                    "AssetHeld",
                    TimeWindow::before(d.asset_escrow_deadline),
                )
                .deposits("principal"),
            )
            .transition(
                TransitionSpec::new(
                    "EscrowAssetRefundsEp",
                    "EpHeld",
                    "AssetHeld",
                    TimeWindow::before(d.asset_escrow_deadline),
                )
                .deposits("principal")
                .releases("escrow_premium", Disposition::Refund),
            )
            .transition(
                TransitionSpec::new(
                    "SettleEpForfeit",
                    "EpHeld",
                    "EpSettled",
                    TimeWindow::from(d.asset_escrow_deadline),
                )
                .releases("escrow_premium", Disposition::Forfeit),
            )
            .transition(
                TransitionSpec::new(
                    "SettleEpRefund",
                    "EpHeld",
                    "EpSettled",
                    TimeWindow::from(d.asset_escrow_deadline),
                )
                .releases("escrow_premium", Disposition::Refund),
            )
            .transition(
                TransitionSpec::new(
                    "RedeemAllHashkeys",
                    "AssetHeld",
                    "Redeemed",
                    TimeWindow::before(last_hashkey),
                )
                .releases("principal", Disposition::Redeem),
            )
            .transition(
                TransitionSpec::new(
                    "SettlePrincipalRefund",
                    "AssetHeld",
                    "Refunded",
                    TimeWindow::from(d.final_deadline),
                )
                .releases("principal", Disposition::Refund),
            );
        // Mirrors the relaxed runtime guard in `deposit_escrow_premium`:
        // with the already-escrowed check compiled out, the premium is also
        // accepted after the asset is escrowed, where no disposition rule
        // can ever release it (the escrow-time refund already ran, and
        // settle's branch requires a never-escrowed principal).
        #[cfg(feature = "canary-bugs")]
        let escrow = escrow
            .transition(
                TransitionSpec::new(
                    "DepositEscrowPremiumLate",
                    "AssetHeld",
                    "AssetHeldEpHeld",
                    TimeWindow::before(d.escrow_premium_deadline),
                )
                .deposits("escrow_premium"),
            )
            .transition(
                TransitionSpec::new(
                    "RedeemAllHashkeys",
                    "AssetHeldEpHeld",
                    "RedeemedEpStuck",
                    TimeWindow::before(last_hashkey),
                )
                .releases("principal", Disposition::Redeem),
            )
            .transition(
                TransitionSpec::new(
                    "SettlePrincipalRefund",
                    "AssetHeldEpHeld",
                    "RefundedEpStuck",
                    TimeWindow::from(d.final_deadline),
                )
                .releases("principal", Disposition::Refund),
            );
        let mut spec = StateSpec::new(self.type_name()).machine(escrow);
        for (leader, _) in self.params.hashlocks.iter() {
            let machine = StateMachine::new(format!("hashkey[{leader}]"), "Init")
                .fund("redemption_premium")
                .transition(
                    TransitionSpec::new(
                        "DepositRedemptionPremium",
                        "Init",
                        "RpHeld",
                        TimeWindow::before(d.redemption_premium_deadline),
                    )
                    .deposits("redemption_premium"),
                )
                .transition(TransitionSpec::new(
                    "PresentHashkey",
                    "Init",
                    "Presented",
                    TimeWindow::before(last_hashkey),
                ))
                .transition(
                    TransitionSpec::new(
                        "PresentHashkeyRefundsRp",
                        "RpHeld",
                        "Presented",
                        TimeWindow::before(last_hashkey),
                    )
                    .releases("redemption_premium", Disposition::Refund),
                )
                .transition(
                    TransitionSpec::new(
                        "SettleRpForfeit",
                        "RpHeld",
                        "RpForfeited",
                        TimeWindow::from(d.final_deadline),
                    )
                    .releases("redemption_premium", Disposition::Forfeit),
                );
            // Mirrors the relaxed runtime guard in
            // `deposit_redemption_premium`: with the already-presented
            // check compiled out, the premium is also accepted after the
            // hashkey arrived, where no disposition rule can ever release
            // it (the presentation-time refund already ran, and settle
            // only disposes premiums of never-presented leaders).
            #[cfg(feature = "canary-bugs")]
            let machine = machine.transition(
                TransitionSpec::new(
                    "DepositRedemptionPremiumLate",
                    "Presented",
                    "PresentedRpHeld",
                    TimeWindow::before(d.redemption_premium_deadline),
                )
                .deposits("redemption_premium"),
            );
            spec = spec.machine(machine);
        }
        Some(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chainsim::{AccountRef, ContractAddr, World};
    use cryptosim::KeyPair;

    // Figure 3a parties.
    const A: PartyId = PartyId(0);
    const B: PartyId = PartyId(1);
    const C: PartyId = PartyId(2);

    struct Fixture {
        world: World,
        addr: ContractAddr,
        token: AssetId,
        native: AssetId,
        secret: Secret,
        pairs: Vec<KeyPair>,
    }

    /// Arc (B, A) of the Figure 3a swap on its own chain, with leader A.
    /// Deadlines: phase boundaries at 2, 4, 6; hashkeys from height 6 with
    /// Δ = 1; everything settles at 12.
    fn setup() -> Fixture {
        let mut world = World::new(1);
        let chain = world.add_chain("banana");
        let native = world.chain(chain).native_asset();
        let token = world.register_asset("banana-token");
        world.chain_mut(chain).mint(B, token, Amount::new(50));
        world.chain_mut(chain).mint(B, native, Amount::new(20));
        world.chain_mut(chain).mint(A, native, Amount::new(20));

        let mut keys = PartyKeys::new();
        let mut pairs = Vec::new();
        for i in 0..3u32 {
            let pair = KeyPair::from_seed(u64::from(i));
            world.directory_mut().register(&pair);
            keys.insert(PartyId(i), pair.public());
            pairs.push(pair);
        }

        let secret = Secret::from_seed(11);
        let digraph = Digraph::figure3();
        let escrow = ArcEscrow::new(ArcEscrowParams {
            sender: B,
            receiver: A,
            asset: token,
            amount: Amount::new(50),
            premium_asset: native,
            base_premium: Amount::new(1),
            escrow_premium: Amount::new(5),
            hashlocks: Arc::new(vec![(A, secret.hashlock())]),
            verify_cache: HashkeyVerifyCache::for_deal(&digraph, &keys),
            premium_evaluator: Arc::new(premiums::RedemptionPremiumEvaluator::new(&digraph)),
            digraph: Arc::new(digraph),
            keys: Arc::new(keys),
            deadlines: ArcDeadlines {
                escrow_premium_deadline: Time(2),
                redemption_premium_deadline: Time(4),
                asset_escrow_deadline: Time(6),
                hashkey_timeout_base: Time(6),
                delta_blocks: 1,
                final_deadline: Time(12),
            },
        });
        let addr = world.publish(chain, Box::new(escrow));
        Fixture { world, addr, token, native, secret, pairs }
    }

    fn contract(f: &Fixture) -> &ArcEscrow {
        f.world.chain(f.addr.chain).contract_as::<ArcEscrow>(f.addr.contract).unwrap()
    }

    fn balance(f: &Fixture, party: PartyId, asset: AssetId) -> Amount {
        f.world.chain(f.addr.chain).balance(AccountRef::Party(party), asset)
    }

    fn leader_hashkey(f: &Fixture) -> Hashkey {
        // Arc (B, A): the receiver is the leader A herself, path (A).
        Hashkey::from_leader(A, f.secret.clone(), &f.pairs[0])
    }

    #[test]
    fn full_compliant_lifecycle() {
        let mut f = setup();
        // Phase 1: sender B deposits the escrow premium E(B,A) = 5p.
        f.world.call(B, f.addr, &ArcEscrowMsg::DepositEscrowPremium).unwrap();
        assert_eq!(contract(&f).escrow_premium_state(), PremiumSlotState::Held);
        f.world.advance_blocks(2);
        // Phase 2: receiver A deposits the redemption premium R((A), B) = 2p.
        f.world
            .call(A, f.addr, &ArcEscrowMsg::DepositRedemptionPremium { leader: A, path: vec![A] })
            .unwrap();
        assert_eq!(contract(&f).redemption_premium_amount(A), Amount::new(2));
        assert!(contract(&f).escrow_premium_activated());
        f.world.advance_blocks(2);
        // Phase 3: sender escrows the asset; escrow premium refunded at once.
        f.world.call(B, f.addr, &ArcEscrowMsg::EscrowAsset).unwrap();
        assert_eq!(contract(&f).escrow_premium_state(), PremiumSlotState::Refunded);
        assert_eq!(balance(&f, B, f.native), Amount::new(20));
        f.world.advance_blocks(2);
        // Phase 4: the leader's hashkey is presented; premium refunded and
        // the principal redeemed.
        let hashkey = leader_hashkey(&f);
        f.world.call(A, f.addr, &ArcEscrowMsg::PresentHashkey { hashkey }).unwrap();
        let c = contract(&f);
        assert_eq!(c.principal_state(), PrincipalState::Redeemed);
        assert_eq!(c.redemption_premium_state(A), PremiumSlotState::Refunded);
        assert!(c.hashkey_presented(A), "A is the only leader");
        assert!(c.revealed_secret(A).is_some());
        assert_eq!(balance(&f, A, f.token), Amount::new(50));
        assert_eq!(balance(&f, A, f.native), Amount::new(20));
    }

    #[test]
    fn redemption_premium_amount_follows_equation_1() {
        let mut f = setup();
        f.world.call(B, f.addr, &ArcEscrowMsg::DepositEscrowPremium).unwrap();
        f.world
            .call(A, f.addr, &ArcEscrowMsg::DepositRedemptionPremium { leader: A, path: vec![A] })
            .unwrap();
        // R_A((A), B) = 2p with p = 1.
        assert_eq!(contract(&f).redemption_premium_amount(A), Amount::new(2));
        assert_eq!(balance(&f, A, f.native), Amount::new(18));
    }

    #[test]
    fn invalid_redemption_paths_are_rejected() {
        let mut f = setup();
        // Path that does not start at the receiver.
        assert!(f
            .world
            .call(
                A,
                f.addr,
                &ArcEscrowMsg::DepositRedemptionPremium { leader: A, path: vec![B, A] },
            )
            .is_err());
        // Path that is not a digraph path.
        assert!(f
            .world
            .call(
                A,
                f.addr,
                &ArcEscrowMsg::DepositRedemptionPremium { leader: A, path: vec![A, C, A] },
            )
            .is_err());
        // Unknown leader.
        assert!(f
            .world
            .call(A, f.addr, &ArcEscrowMsg::DepositRedemptionPremium { leader: C, path: vec![A] },)
            .is_err());
        // Wrong depositor.
        assert!(f
            .world
            .call(B, f.addr, &ArcEscrowMsg::DepositRedemptionPremium { leader: A, path: vec![A] },)
            .is_err());
    }

    #[test]
    fn activated_escrow_premium_goes_to_receiver_when_sender_defects() {
        let mut f = setup();
        f.world.call(B, f.addr, &ArcEscrowMsg::DepositEscrowPremium).unwrap();
        f.world
            .call(A, f.addr, &ArcEscrowMsg::DepositRedemptionPremium { leader: A, path: vec![A] })
            .unwrap();
        // B never escrows the asset. After the asset-escrow deadline the
        // activated escrow premium is awarded to A.
        f.world.advance_blocks(6);
        f.world.call(A, f.addr, &ArcEscrowMsg::Settle).unwrap();
        assert_eq!(contract(&f).escrow_premium_state(), PremiumSlotState::PaidToCounterparty);
        assert_eq!(balance(&f, A, f.native), Amount::new(18 + 5));
        // A's own redemption premium is still held until the final deadline,
        // then returns to the sender (A never needed to present a hashkey
        // because nothing was escrowed, but the arc-local rule stands).
        f.world.advance_blocks(6);
        f.world.call(B, f.addr, &ArcEscrowMsg::Settle).unwrap();
        assert_eq!(contract(&f).redemption_premium_state(A), PremiumSlotState::PaidToCounterparty);
    }

    #[test]
    fn unactivated_escrow_premium_is_refunded() {
        let mut f = setup();
        f.world.call(B, f.addr, &ArcEscrowMsg::DepositEscrowPremium).unwrap();
        // A never deposits the redemption premium, so the escrow premium is
        // never activated; B gets it back after the asset-escrow deadline.
        f.world.advance_blocks(6);
        f.world.call(B, f.addr, &ArcEscrowMsg::Settle).unwrap();
        assert_eq!(contract(&f).escrow_premium_state(), PremiumSlotState::Refunded);
        assert_eq!(balance(&f, B, f.native), Amount::new(20));
    }

    #[test]
    fn unpresented_hashkey_forfeits_redemption_premium_and_refunds_principal() {
        let mut f = setup();
        f.world.call(B, f.addr, &ArcEscrowMsg::DepositEscrowPremium).unwrap();
        f.world
            .call(A, f.addr, &ArcEscrowMsg::DepositRedemptionPremium { leader: A, path: vec![A] })
            .unwrap();
        f.world.advance_blocks(4);
        f.world.call(B, f.addr, &ArcEscrowMsg::EscrowAsset).unwrap();
        // A never presents the hashkey. After the final deadline: principal
        // back to B, A's redemption premium to B.
        f.world.advance_blocks(8);
        f.world.call(B, f.addr, &ArcEscrowMsg::Settle).unwrap();
        let c = contract(&f);
        assert_eq!(c.principal_state(), PrincipalState::Refunded);
        assert_eq!(c.redemption_premium_state(A), PremiumSlotState::PaidToCounterparty);
        assert_eq!(balance(&f, B, f.token), Amount::new(50));
        assert_eq!(balance(&f, B, f.native), Amount::new(22));
        assert_eq!(balance(&f, A, f.native), Amount::new(18));
    }

    #[test]
    fn hashkey_timeout_depends_on_path_length() {
        let mut f = setup();
        f.world.call(B, f.addr, &ArcEscrowMsg::DepositEscrowPremium).unwrap();
        f.world
            .call(A, f.addr, &ArcEscrowMsg::DepositRedemptionPremium { leader: A, path: vec![A] })
            .unwrap();
        f.world.advance_blocks(4);
        f.world.call(B, f.addr, &ArcEscrowMsg::EscrowAsset).unwrap();
        // A path-length-1 hashkey times out at 6 + 1·Δ = 7; at height 7 it is late.
        f.world.advance_blocks(3);
        let hashkey = leader_hashkey(&f);
        let err = f.world.call(A, f.addr, &ArcEscrowMsg::PresentHashkey { hashkey }).unwrap_err();
        assert!(err.to_string().contains("deadline"));
        assert_eq!(contract(&f).principal_state(), PrincipalState::Held);
    }

    #[test]
    fn forged_or_mismatched_hashkeys_are_rejected() {
        let mut f = setup();
        f.world.call(B, f.addr, &ArcEscrowMsg::DepositEscrowPremium).unwrap();
        f.world.advance_blocks(4);
        f.world.call(B, f.addr, &ArcEscrowMsg::EscrowAsset).unwrap();
        // Wrong secret.
        let bogus = Hashkey::from_leader(A, Secret::from_seed(999), &f.pairs[0]);
        assert!(f.world.call(A, f.addr, &ArcEscrowMsg::PresentHashkey { hashkey: bogus }).is_err());
        // Unknown leader.
        let wrong_leader = Hashkey::from_leader(C, f.secret.clone(), &f.pairs[2]);
        assert!(f
            .world
            .call(A, f.addr, &ArcEscrowMsg::PresentHashkey { hashkey: wrong_leader })
            .is_err());
        // Path that does not start at the receiver A: B extends the leader's
        // hashkey, which is valid for arc (A,B) but not for this arc.
        let for_other_arc = leader_hashkey(&f).extend(B, &f.pairs[1]);
        assert!(f
            .world
            .call(A, f.addr, &ArcEscrowMsg::PresentHashkey { hashkey: for_other_arc })
            .is_err());
        assert_eq!(contract(&f).principal_state(), PrincipalState::Held);
    }

    #[test]
    fn escrow_premium_and_asset_deadlines_are_enforced() {
        let mut f = setup();
        f.world.advance_blocks(2);
        assert!(f.world.call(B, f.addr, &ArcEscrowMsg::DepositEscrowPremium).is_err());
        f.world.advance_blocks(4);
        assert!(f.world.call(B, f.addr, &ArcEscrowMsg::EscrowAsset).is_err());
        // Redemption premium also respects its deadline.
        assert!(f
            .world
            .call(A, f.addr, &ArcEscrowMsg::DepositRedemptionPremium { leader: A, path: vec![A] },)
            .is_err());
    }

    #[test]
    fn settle_with_nothing_due_is_an_error() {
        let mut f = setup();
        assert!(f.world.call(A, f.addr, &ArcEscrowMsg::Settle).is_err());
    }

    #[test]
    fn duplicate_deposits_and_presentations_are_rejected() {
        let mut f = setup();
        f.world.call(B, f.addr, &ArcEscrowMsg::DepositEscrowPremium).unwrap();
        assert!(f.world.call(B, f.addr, &ArcEscrowMsg::DepositEscrowPremium).is_err());
        f.world
            .call(A, f.addr, &ArcEscrowMsg::DepositRedemptionPremium { leader: A, path: vec![A] })
            .unwrap();
        assert!(f
            .world
            .call(A, f.addr, &ArcEscrowMsg::DepositRedemptionPremium { leader: A, path: vec![A] },)
            .is_err());
        f.world.advance_blocks(4);
        f.world.call(B, f.addr, &ArcEscrowMsg::EscrowAsset).unwrap();
        f.world.advance_blocks(2);
        let hashkey = leader_hashkey(&f);
        f.world.call(A, f.addr, &ArcEscrowMsg::PresentHashkey { hashkey }).unwrap();
        let hashkey = leader_hashkey(&f);
        assert!(f.world.call(A, f.addr, &ArcEscrowMsg::PresentHashkey { hashkey }).is_err());
    }

    #[test]
    fn deadline_helper_math() {
        let deadlines = ArcDeadlines {
            escrow_premium_deadline: Time(1),
            redemption_premium_deadline: Time(2),
            asset_escrow_deadline: Time(3),
            hashkey_timeout_base: Time(10),
            delta_blocks: 3,
            final_deadline: Time(30),
        };
        assert_eq!(deadlines.hashkey_deadline(1), Time(13));
        assert_eq!(deadlines.hashkey_deadline(3), Time(19));
    }
}
