//! Signature-authenticated hashkey paths (§7 of the paper).
//!
//! A *hashkey* for hashlock `h_i` on an arc `(u, v)` is a triple
//! `(s_i, q, σ)` where `s_i` is the secret with `H(s_i) = h_i`, `q` is a
//! simple path from the arc's receiver `v` to the leader `L_i` that
//! generated the secret, and `σ` is a chain of signatures authenticating
//! the path: the leader signs the secret, and each party that extends the
//! path countersigns the previous signature. A hashkey times out after a
//! duration proportional to its path length, which is what bounds how long
//! secrets remain usable as they propagate through the swap digraph.

use std::collections::BTreeMap;
use std::fmt;

use chainsim::{ContractError, PartyId};
use cryptosim::{sha256_concat, Hashlock, KeyDirectory, KeyPair, PublicKey, Secret, Signature};
use serde::{Deserialize, Serialize};
use swapgraph::Digraph;

/// The public keys of all protocol participants, keyed by party.
///
/// Contract code verifies hashkey signature chains against this map; it is
/// part of the publicly agreed protocol parameters.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartyKeys {
    keys: BTreeMap<PartyId, PublicKey>,
}

impl PartyKeys {
    /// Creates an empty key map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `party`'s public key.
    pub fn insert(&mut self, party: PartyId, key: PublicKey) {
        self.keys.insert(party, key);
    }

    /// Looks up a party's public key.
    pub fn get(&self, party: PartyId) -> Option<PublicKey> {
        self.keys.get(&party).copied()
    }

    /// The number of registered parties.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Returns `true` if no keys are registered.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The registered keys in ascending party order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (PartyId, PublicKey)> + '_ {
        self.keys.iter().map(|(party, key)| (*party, *key))
    }
}

impl FromIterator<(PartyId, PublicKey)> for PartyKeys {
    fn from_iter<T: IntoIterator<Item = (PartyId, PublicKey)>>(iter: T) -> Self {
        PartyKeys { keys: iter.into_iter().collect() }
    }
}

/// One hop of a hashkey's signature chain.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
struct Hop {
    party: PartyId,
    signature: Signature,
}

/// A signature-authenticated hashkey.
///
/// The path runs from the presenting arc's receiver to the leader; the
/// signature chain was built in the opposite order (leader first), each hop
/// signing the previous hop's signature tag.
///
/// # Examples
///
/// ```
/// use chainsim::PartyId;
/// use contracts::{Hashkey, PartyKeys};
/// use cryptosim::{KeyDirectory, KeyPair, Secret};
/// use swapgraph::Digraph;
///
/// let alice = (PartyId(0), KeyPair::from_seed(0));
/// let bob = (PartyId(1), KeyPair::from_seed(1));
/// let mut directory = KeyDirectory::new();
/// directory.register(&alice.1);
/// directory.register(&bob.1);
/// let keys: PartyKeys =
///     [(alice.0, alice.1.public()), (bob.0, bob.1.public())].into_iter().collect();
///
/// let secret = Secret::from_seed(7);
/// let hashlock = secret.hashlock();
/// // Alice (the leader) creates the hashkey, Bob extends it.
/// let k = Hashkey::from_leader(alice.0, secret, &alice.1);
/// let k = k.extend(bob.0, &bob.1);
///
/// let g = Digraph::cycle(2);
/// assert!(k.verify(&directory, &keys, &g, PartyId(1), &hashlock).is_ok());
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Hashkey {
    leader: PartyId,
    secret: Secret,
    /// Signature chain in signing order: the leader first, then each party
    /// that extended the path.
    hops: Vec<Hop>,
}

impl Hashkey {
    /// Creates the leader's initial hashkey: path `(L_i)`, signed by the
    /// leader over the secret.
    pub fn from_leader(leader: PartyId, secret: Secret, leader_keys: &KeyPair) -> Self {
        let signature = leader_keys.sign(&Self::leader_message(leader, &secret));
        Hashkey { leader, secret, hops: vec![Hop { party: leader, signature }] }
    }

    /// Extends the hashkey's path by one hop: `party` countersigns the
    /// previous signature, producing the hashkey it may present on its own
    /// incoming arcs.
    #[must_use]
    pub fn extend(&self, party: PartyId, party_keys: &KeyPair) -> Self {
        let previous = &self.hops.last().expect("hashkey always has at least one hop").signature;
        let signature = party_keys.sign(&Self::hop_message(party, previous));
        let mut hops = self.hops.clone();
        hops.push(Hop { party, signature });
        Hashkey { leader: self.leader, secret: self.secret.clone(), hops }
    }

    /// The leader that generated the underlying secret.
    pub fn leader(&self) -> PartyId {
        self.leader
    }

    /// The revealed secret carried by the hashkey.
    pub fn secret(&self) -> &Secret {
        &self.secret
    }

    /// The path from the presenting receiver to the leader, in paper order
    /// (`u0 = receiver, …, u_k = leader`).
    pub fn path(&self) -> Vec<PartyId> {
        self.hops.iter().rev().map(|hop| hop.party).collect()
    }

    /// The path length `|q|` (number of vertices), which determines the
    /// hashkey's timeout.
    pub fn path_len(&self) -> usize {
        self.hops.len()
    }

    /// The tag of the final signature in the chain.
    ///
    /// Under collision resistance this single digest binds the entire
    /// hashkey: each hop signs the previous hop's tag, the leader signs the
    /// secret, and every signing message includes the signer's identity —
    /// so two hashkeys with equal chain tags are (computationally) the same
    /// chain over the same path and secret. Contracts use it to memoise
    /// repeated verifications of the same presentation.
    pub fn chain_tag(&self) -> cryptosim::Digest {
        self.hops.last().expect("hashkey always has at least one hop").signature.tag()
    }

    /// Verifies this hashkey for presentation on an arc whose receiver is
    /// `receiver`, against hashlock `hashlock` in digraph `digraph`.
    ///
    /// Checks performed:
    /// 1. the secret matches the hashlock;
    /// 2. the path starts at `receiver` and ends at the leader;
    /// 3. the path is a simple path of `digraph` following arc directions
    ///    (party ids are used as digraph vertices);
    /// 4. every signature in the chain verifies against the registered keys.
    ///
    /// # Errors
    ///
    /// Returns [`ContractError::HashlockMismatch`] or
    /// [`ContractError::HashkeyRejected`] describing the failed check.
    pub fn verify(
        &self,
        directory: &KeyDirectory,
        keys: &PartyKeys,
        digraph: &Digraph,
        receiver: PartyId,
        hashlock: &Hashlock,
    ) -> Result<(), ContractError> {
        if !hashlock.matches(&self.secret) {
            return Err(ContractError::HashlockMismatch);
        }
        let path = self.path();
        if path.is_empty() {
            return Err(ContractError::hashkey_rejected("empty path"));
        }
        if path[0] != receiver {
            return Err(ContractError::hashkey_rejected(format!(
                "path starts at {} but must start at the arc receiver {receiver}",
                path[0]
            )));
        }
        if *path.last().expect("non-empty") != self.leader {
            return Err(ContractError::hashkey_rejected("path does not end at the leader"));
        }
        // Simple path following arc directions.
        let mut seen = std::collections::BTreeSet::new();
        for party in &path {
            if !seen.insert(*party) {
                return Err(ContractError::hashkey_rejected("path revisits a vertex"));
            }
        }
        for pair in path.windows(2) {
            if !digraph.contains_arc(pair[0].0, pair[1].0) {
                return Err(ContractError::hashkey_rejected(format!(
                    "({}, {}) is not an arc of the swap digraph",
                    pair[0], pair[1]
                )));
            }
        }
        // Signature chain: leader over the secret, each later hop over the
        // previous signature.
        let leader_hop = &self.hops[0];
        if leader_hop.party != self.leader {
            return Err(ContractError::hashkey_rejected("first signature is not the leader's"));
        }
        let leader_key = keys
            .get(self.leader)
            .ok_or_else(|| ContractError::hashkey_rejected("leader key not registered"))?;
        if !directory.verify(
            &leader_key,
            &Self::leader_message(self.leader, &self.secret),
            &leader_hop.signature,
        ) {
            return Err(ContractError::hashkey_rejected("leader signature invalid"));
        }
        for i in 1..self.hops.len() {
            let hop = &self.hops[i];
            let previous = &self.hops[i - 1].signature;
            let key = keys.get(hop.party).ok_or_else(|| {
                ContractError::hashkey_rejected(format!("no key registered for {}", hop.party))
            })?;
            if !directory.verify(&key, &Self::hop_message(hop.party, previous), &hop.signature) {
                return Err(ContractError::hashkey_rejected(format!(
                    "signature by {} invalid",
                    hop.party
                )));
            }
        }
        Ok(())
    }

    fn leader_message(leader: PartyId, secret: &Secret) -> Vec<u8> {
        sha256_concat(&[b"hashkey/leader", &leader.0.to_be_bytes(), secret.as_bytes()])
            .as_bytes()
            .to_vec()
    }

    fn hop_message(party: PartyId, previous: &Signature) -> Vec<u8> {
        sha256_concat(&[b"hashkey/hop", &party.0.to_be_bytes(), previous.tag().as_bytes()])
            .as_bytes()
            .to_vec()
    }
}

impl fmt::Display for Hashkey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let path: Vec<String> = self.path().iter().map(|p| p.to_string()).collect();
        write!(f, "hashkey[leader={}, path=({})]", self.leader, path.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixture {
        directory: KeyDirectory,
        keys: PartyKeys,
        pairs: Vec<KeyPair>,
        digraph: Digraph,
    }

    /// Figure 3a digraph with parties 0 = A (leader), 1 = B, 2 = C.
    fn fixture() -> Fixture {
        let mut directory = KeyDirectory::new();
        let mut keys = PartyKeys::new();
        let mut pairs = Vec::new();
        for i in 0..3u32 {
            let pair = KeyPair::from_seed(u64::from(i));
            directory.register(&pair);
            keys.insert(PartyId(i), pair.public());
            pairs.push(pair);
        }
        Fixture { directory, keys, pairs, digraph: Digraph::figure3() }
    }

    #[test]
    fn leader_hashkey_verifies_on_incoming_arc() {
        let f = fixture();
        let secret = Secret::from_seed(1);
        let hashlock = secret.hashlock();
        let k = Hashkey::from_leader(PartyId(0), secret, &f.pairs[0]);
        // Arc (B, A): receiver is A itself; path (A).
        assert!(k.verify(&f.directory, &f.keys, &f.digraph, PartyId(0), &hashlock).is_ok());
        assert_eq!(k.path(), vec![PartyId(0)]);
        assert_eq!(k.path_len(), 1);
        assert_eq!(k.leader(), PartyId(0));
    }

    #[test]
    fn extended_hashkey_follows_figure_3b_paths() {
        let f = fixture();
        let secret = Secret::from_seed(2);
        let hashlock = secret.hashlock();
        let k_a = Hashkey::from_leader(PartyId(0), secret, &f.pairs[0]);
        // C extends for arc (B, C): path (C, A).
        let k_c = k_a.extend(PartyId(2), &f.pairs[2]);
        assert_eq!(k_c.path(), vec![PartyId(2), PartyId(0)]);
        assert!(k_c.verify(&f.directory, &f.keys, &f.digraph, PartyId(2), &hashlock).is_ok());
        // B extends C's hashkey for arc (A, B): path (B, C, A).
        let k_b = k_c.extend(PartyId(1), &f.pairs[1]);
        assert_eq!(k_b.path(), vec![PartyId(1), PartyId(2), PartyId(0)]);
        assert!(k_b.verify(&f.directory, &f.keys, &f.digraph, PartyId(1), &hashlock).is_ok());
        assert!(k_b.to_string().contains("leader=P0"));
    }

    #[test]
    fn wrong_receiver_is_rejected() {
        let f = fixture();
        let secret = Secret::from_seed(3);
        let hashlock = secret.hashlock();
        let k =
            Hashkey::from_leader(PartyId(0), secret, &f.pairs[0]).extend(PartyId(2), &f.pairs[2]);
        let err = k.verify(&f.directory, &f.keys, &f.digraph, PartyId(1), &hashlock).unwrap_err();
        assert!(matches!(err, ContractError::HashkeyRejected { .. }));
    }

    #[test]
    fn wrong_secret_is_rejected() {
        let f = fixture();
        let secret = Secret::from_seed(4);
        let other = Secret::from_seed(5).hashlock();
        let k = Hashkey::from_leader(PartyId(0), secret, &f.pairs[0]);
        assert_eq!(
            k.verify(&f.directory, &f.keys, &f.digraph, PartyId(0), &other),
            Err(ContractError::HashlockMismatch)
        );
    }

    #[test]
    fn path_not_in_digraph_is_rejected() {
        let f = fixture();
        let secret = Secret::from_seed(6);
        let hashlock = secret.hashlock();
        // C → B is not an arc, so extending from C's hashkey by... build a
        // path (B, A) then extend by C: path (C, B, A), but (C, B) ∉ G.
        let k = Hashkey::from_leader(PartyId(0), secret, &f.pairs[0])
            .extend(PartyId(1), &f.pairs[1])
            .extend(PartyId(2), &f.pairs[2]);
        let err = k.verify(&f.directory, &f.keys, &f.digraph, PartyId(2), &hashlock).unwrap_err();
        assert!(err.to_string().contains("not an arc"));
    }

    #[test]
    fn forged_signature_is_rejected() {
        let f = fixture();
        let secret = Secret::from_seed(7);
        let hashlock = secret.hashlock();
        // Bob tries to extend using a key pair that is not his registered key.
        let impostor = KeyPair::from_seed(99);
        let k = Hashkey::from_leader(PartyId(0), secret, &f.pairs[0]).extend(PartyId(1), &impostor);
        let err = k.verify(&f.directory, &f.keys, &f.digraph, PartyId(1), &hashlock).unwrap_err();
        assert!(err.to_string().contains("signature by P1 invalid"));
    }

    #[test]
    fn leader_signature_forgery_is_rejected() {
        let f = fixture();
        let secret = Secret::from_seed(8);
        let hashlock = secret.hashlock();
        let impostor = KeyPair::from_seed(98);
        let k = Hashkey::from_leader(PartyId(0), secret, &impostor);
        let err = k.verify(&f.directory, &f.keys, &f.digraph, PartyId(0), &hashlock).unwrap_err();
        assert!(err.to_string().contains("leader signature invalid"));
    }

    #[test]
    fn revisiting_a_vertex_is_rejected() {
        let f = fixture();
        let secret = Secret::from_seed(9);
        let hashlock = secret.hashlock();
        let k = Hashkey::from_leader(PartyId(0), secret, &f.pairs[0])
            .extend(PartyId(1), &f.pairs[1])
            .extend(PartyId(0), &f.pairs[0]);
        let err = k.verify(&f.directory, &f.keys, &f.digraph, PartyId(0), &hashlock).unwrap_err();
        assert!(
            err.to_string().contains("path does not end at the leader")
                || err.to_string().contains("revisits")
        );
    }

    #[test]
    fn unknown_party_key_is_rejected() {
        let f = fixture();
        let secret = Secret::from_seed(10);
        let hashlock = secret.hashlock();
        let stranger = KeyPair::from_seed(50);
        // Party 7 is not in the key map (and not in the digraph either).
        let k = Hashkey::from_leader(PartyId(0), secret, &f.pairs[0]).extend(PartyId(7), &stranger);
        let err = k.verify(&f.directory, &f.keys, &f.digraph, PartyId(7), &hashlock).unwrap_err();
        assert!(matches!(err, ContractError::HashkeyRejected { .. }));
    }

    #[test]
    fn party_keys_collection_behaviour() {
        let f = fixture();
        assert_eq!(f.keys.len(), 3);
        assert!(!f.keys.is_empty());
        assert_eq!(f.keys.get(PartyId(1)), Some(f.pairs[1].public()));
        assert_eq!(f.keys.get(PartyId(9)), None);
        let empty = PartyKeys::new();
        assert!(empty.is_empty());
    }
}
