//! Equivalence property: the committer's two-phase commit path (VSCC
//! verdicts, then serial MVCC/apply) must make the same decisions as an
//! independent serial reference validator on seeded contention workloads —
//! same per-block `ValidationCode` sequences, same MVCC-conflict sets, same
//! written keys, same world-state hash — with and without the
//! signature-verification cache.
//!
//! The reference ([`SerialOracle`]) is built from public API only: it
//! decodes each envelope, checks duplicates against its own seen-set,
//! verifies every endorsement signature through the MSP, evaluates the
//! endorsement policy and runs the MVCC read check against its own
//! [`StateDb`], in Fabric's serial order.

use std::collections::HashSet;
use std::sync::Arc;

use hyperprov_fabric::{
    endorsement_message, ChannelPolicies, CommitOutcome, Committer, Endorsement, EndorsementPolicy,
    Envelope, Msp, MspBuilder, MspId, Proposal, SigVerifyCache, Signature, SigningIdentity,
};
use hyperprov_ledger::{
    Block, Digest, GraphIndexer, GraphUpdate, KvRead, KvWrite, ProvGraph, RawEnvelope, RwSet,
    StateDb, StateKey, TxId, ValidationCode, Version,
};
use proptest::prelude::*;

/// Deterministic xorshift64* generator so each seed reproduces one
/// workload exactly.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

struct Net {
    msp: Arc<Msp>,
    client: SigningIdentity,
    peers: Vec<SigningIdentity>,
}

fn net() -> Net {
    let mut b = MspBuilder::new(1);
    let client = b.enroll("client", &MspId::new("org1"));
    let peers = (0..3)
        .map(|i| b.enroll(&format!("peer{i}"), &MspId::new(format!("org{}", i + 1))))
        .collect();
    Net {
        msp: b.build(),
        client,
        peers,
    }
}

fn envelope(net: &Net, nonce: u64, rwset: RwSet, endorsers: &[usize]) -> Envelope {
    let proposal = Proposal {
        channel: "ch".into(),
        chaincode: "cc".into(),
        function: "f".into(),
        args: vec![],
        creator: net.client.certificate().clone(),
        nonce,
    };
    let tx_id = proposal.tx_id();
    let msg = endorsement_message(&tx_id, b"r", &rwset);
    let endorsements = endorsers
        .iter()
        .map(|&i| Endorsement {
            endorser: net.peers[i].certificate().clone(),
            signature: net.peers[i].sign(&msg),
        })
        .collect();
    Envelope {
        proposal,
        payload: b"r".to_vec(),
        rwset,
        event: None,
        endorsements,
    }
}

fn write_rwset(key: &str, value: &[u8]) -> RwSet {
    RwSet {
        reads: vec![],
        writes: vec![KvWrite {
            key: StateKey::new("cc", key),
            value: Some(value.to_vec()),
        }],
    }
}

/// One seeded contention workload: a few hot keys, random read versions
/// (stale and fresh), endorser subsets that sometimes fail the all-of
/// policy, occasional forged signatures and duplicate transactions.
fn workload(net: &Net, seed: u64) -> Vec<Vec<Envelope>> {
    let mut rng = XorShift::new(seed);
    let mut nonce = 0u64;
    let mut history: Vec<Envelope> = Vec::new();
    let n_blocks = 3 + rng.below(3); // 3..=5
    let mut blocks = Vec::new();
    for _ in 0..n_blocks {
        let n_txs = 3 + rng.below(4); // 3..=6
        let mut envs = Vec::new();
        for _ in 0..n_txs {
            let roll = rng.below(100);
            if roll < 15 && !history.is_empty() {
                // Duplicate of an earlier transaction (same tx id).
                let idx = rng.below(history.len() as u64) as usize;
                envs.push(history[idx].clone());
                continue;
            }
            nonce += 1;
            let hot = format!("k{}", rng.below(3));
            let version = match rng.below(4) {
                0 => None,
                _ => Some(Version::new(rng.below(4), rng.below(5) as u32)),
            };
            let rwset = if rng.below(100) < 70 {
                // Contention: read a hot key at a possibly-stale version
                // and write it back.
                RwSet {
                    reads: vec![KvRead {
                        key: StateKey::new("cc", &hot),
                        version,
                    }],
                    writes: vec![KvWrite {
                        key: StateKey::new("cc", &hot),
                        value: Some(nonce.to_le_bytes().to_vec()),
                    }],
                }
            } else {
                // Blind write to a fresh key: valid whenever the
                // signatures and policy hold.
                RwSet {
                    reads: vec![],
                    writes: vec![KvWrite {
                        key: StateKey::new("cc", format!("fresh-{nonce}")),
                        value: Some(nonce.to_le_bytes().to_vec()),
                    }],
                }
            };
            // [0] and [1] fail the all-of(org1, org2) policy; the rest
            // satisfy it.
            let endorsers: &[usize] = match rng.below(4) {
                0 => &[0],
                1 => &[1],
                2 => &[0, 1],
                _ => &[0, 1, 2],
            };
            let mut env = envelope(net, nonce, rwset, endorsers);
            if rng.below(100) < 10 {
                let slot = rng.below(env.endorsements.len() as u64) as usize;
                env.endorsements[slot].signature = Signature(Digest::of(&nonce.to_le_bytes()));
            }
            history.push(env.clone());
            envs.push(env);
        }
        blocks.push(envs);
    }
    blocks
}

fn channel_policy() -> EndorsementPolicy {
    EndorsementPolicy::all_of([MspId::new("org1"), MspId::new("org2")])
}

fn fresh_committer(net: &Net) -> Committer {
    Committer::new(net.msp.clone(), ChannelPolicies::new(channel_policy()))
}

/// What the serial reference decided for one block.
#[derive(Debug, Default)]
struct OracleBlock {
    codes: Vec<ValidationCode>,
    written_keys: Vec<StateKey>,
    bytes_written: u64,
    dangling_parents: u64,
}

/// Serial reference validator: Fabric's per-transaction check order
/// (decode, duplicate tx-id, endorsement signatures, endorsement policy,
/// MVCC) over its own world state, seen-set and optional graph index.
struct SerialOracle {
    msp: Arc<Msp>,
    policy: EndorsementPolicy,
    state: StateDb,
    seen: HashSet<TxId>,
    height: u64,
    graph: Option<(Arc<dyn GraphIndexer>, ProvGraph)>,
}

impl SerialOracle {
    fn new(msp: Arc<Msp>, policy: EndorsementPolicy) -> Self {
        SerialOracle {
            msp,
            policy,
            state: StateDb::new(),
            seen: HashSet::new(),
            height: 0,
            graph: None,
        }
    }

    fn with_indexer(mut self, indexer: Arc<dyn GraphIndexer>) -> Self {
        self.graph = Some((indexer, ProvGraph::new()));
        self
    }

    fn validate(&self, env: &Envelope, tx_id: &TxId) -> ValidationCode {
        if self.seen.contains(tx_id) {
            return ValidationCode::DuplicateTxId;
        }
        let msg = endorsement_message(tx_id, &env.payload, &env.rwset);
        let mut orgs = Vec::new();
        for e in &env.endorsements {
            if !self.msp.verify(&e.endorser, &msg, &e.signature) {
                return ValidationCode::BadSignature;
            }
            orgs.push(&e.endorser.org);
        }
        if !self.policy.is_satisfied_by(orgs) {
            return ValidationCode::EndorsementPolicyFailure;
        }
        if !self.state.validate_reads(&env.rwset.reads) {
            return ValidationCode::MvccReadConflict;
        }
        ValidationCode::Valid
    }

    fn commit(&mut self, raws: &[RawEnvelope]) -> OracleBlock {
        let mut out = OracleBlock::default();
        for (tx_num, raw) in raws.iter().enumerate() {
            let Ok(env) = Envelope::from_raw(raw) else {
                out.codes.push(ValidationCode::BadSignature);
                continue;
            };
            let tx_id = env.tx_id();
            let code = self.validate(&env, &tx_id);
            if code.is_valid() {
                let writes = &env.rwset.writes;
                self.state
                    .apply_writes(writes, Version::new(self.height, tx_num as u32));
                if let Some((indexer, graph)) = &mut self.graph {
                    for w in writes {
                        if let Some(update) = indexer.index(&w.key, w.value.as_deref()) {
                            out.dangling_parents += graph.apply(&update);
                        }
                    }
                }
                out.bytes_written += env.rwset.write_bytes() as u64;
                out.written_keys
                    .extend(writes.iter().map(|w| w.key.clone()));
            }
            self.seen.insert(tx_id);
            out.codes.push(code);
        }
        self.height += 1;
        out
    }
}

fn raws(envs: &[Envelope]) -> Vec<RawEnvelope> {
    envs.iter().map(Envelope::to_raw).collect()
}

/// Commits `raws` as the committer's next block, through the signature
/// cache when one is given.
fn commit(
    c: &mut Committer,
    raws: Vec<RawEnvelope>,
    cache: Option<&mut SigVerifyCache>,
) -> CommitOutcome {
    let block = Block::build(c.height(), c.store().tip_hash(), raws);
    match cache {
        Some(cache) => {
            let verdicts = c.vscc_block(&block, Some(cache));
            c.commit_block_prevalidated(block, verdicts).unwrap()
        }
        None => c.commit_block(block).unwrap(),
    }
}

/// Asserts that one committed block agrees with the oracle's decisions.
fn assert_block_agrees(c: &Committer, out: &CommitOutcome, want: &OracleBlock, what: &str) {
    let height = c.height() - 1;
    let codes = &c.store().block(height).unwrap().metadata.codes;
    assert_eq!(codes, &want.codes, "{what} block {height}");
    let event_codes: Vec<_> = out.events.iter().map(|e| e.code).collect();
    assert_eq!(event_codes, want.codes, "{what} block {height}");
    let valid = want.codes.iter().filter(|c| c.is_valid()).count() as u32;
    assert_eq!(out.valid, valid, "{what} block {height}");
    assert_eq!(out.invalid as usize, want.codes.len() - valid as usize);
    assert_eq!(
        out.bytes_written, want.bytes_written,
        "{what} block {height}"
    );
    assert_eq!(out.written_keys, want.written_keys, "{what} block {height}");
    assert_eq!(out.dangling_parents, want.dangling_parents);
}

fn mvcc_conflicts(out: &CommitOutcome) -> impl Iterator<Item = TxId> + '_ {
    out.events
        .iter()
        .filter(|e| e.code == ValidationCode::MvccReadConflict)
        .map(|e| e.tx_id)
}

/// Commits the seeded workload through the committer (without and with a
/// persistent [`SigVerifyCache`]) and through the serial oracle, asserting
/// all three agree on every observable outcome.
fn assert_equivalent(seed: u64) {
    let net = net();
    let blocks = workload(&net, seed);
    let mut oracle = SerialOracle::new(net.msp.clone(), channel_policy());
    let mut plain = fresh_committer(&net);
    let mut cached = fresh_committer(&net);
    let mut cache = SigVerifyCache::new();

    let mut conflicts_oracle: Vec<TxId> = Vec::new();
    let mut conflicts_plain: Vec<TxId> = Vec::new();
    let mut conflicts_cached: Vec<TxId> = Vec::new();

    for envs in &blocks {
        let raws = raws(envs);
        let want = oracle.commit(&raws);
        conflicts_oracle.extend(
            raws.iter()
                .zip(&want.codes)
                .filter(|(_, code)| **code == ValidationCode::MvccReadConflict)
                .map(|(raw, _)| raw.tx_id),
        );

        let out = commit(&mut plain, raws.clone(), None);
        assert_block_agrees(&plain, &out, &want, &format!("seed {seed} uncached"));
        conflicts_plain.extend(mvcc_conflicts(&out));

        let out = commit(&mut cached, raws, Some(&mut cache));
        assert_block_agrees(&cached, &out, &want, &format!("seed {seed} cached"));
        conflicts_cached.extend(mvcc_conflicts(&out));
    }

    assert_eq!(conflicts_oracle, conflicts_plain, "seed {seed}");
    assert_eq!(conflicts_oracle, conflicts_cached, "seed {seed}");
    assert_eq!(oracle.state.state_hash(), plain.state().state_hash());
    assert_eq!(oracle.state.state_hash(), cached.state().state_hash());
    assert_eq!(plain.store().tip_hash(), cached.store().tip_hash());
    // The cache saw repeated (cert, msg, sig) triples across duplicates
    // and re-endorsements without ever changing a decision.
    assert!(cache.hits() + cache.misses() > 0, "seed {seed}");
}

#[test]
fn split_commit_matches_serial_on_seeded_contention() {
    // The ISSUE asks for at least 8 seeds; run 12 fixed ones.
    for seed in 0..12 {
        assert_equivalent(seed);
    }
}

#[test]
fn workloads_exercise_every_validation_code() {
    // Meta-check: across the fixed seeds the generator actually produces
    // the interesting mix (valid, policy failure, bad signature, MVCC
    // conflict, duplicate) — otherwise the equivalence above is vacuous.
    let net = net();
    let mut seen = std::collections::BTreeSet::new();
    for seed in 0..12 {
        let mut c = fresh_committer(&net);
        for envs in &workload(&net, seed) {
            let block = Block::build(
                c.height(),
                c.store().tip_hash(),
                envs.iter().map(Envelope::to_raw).collect(),
            );
            let out = c.commit_block(block).unwrap();
            seen.extend(out.events.iter().map(|e| format!("{:?}", e.code)));
        }
    }
    for code in [
        "Valid",
        "MvccReadConflict",
        "BadSignature",
        "EndorsementPolicyFailure",
        "DuplicateTxId",
    ] {
        assert!(seen.contains(code), "generator never produced {code}");
    }
}

#[test]
fn mixed_block_and_cached_duplicate_match_oracle() {
    // A valid write, a forged signature and an MVCC conflict pair, then a
    // duplicate of the first transaction in a second block. The cached
    // committer serves the duplicate's signature from the cache, yet its
    // serial phase still reports DuplicateTxId.
    let net = net();
    let policy = EndorsementPolicy::any_of([MspId::new("org1")]);
    let mut oracle = SerialOracle::new(net.msp.clone(), policy.clone());
    let mut c = Committer::new(net.msp.clone(), ChannelPolicies::new(policy));
    let mut cache = SigVerifyCache::new();

    let e_valid = envelope(&net, 1, write_rwset("a", b"1"), &[0]);
    let mut e_forged = envelope(&net, 2, write_rwset("b", b"2"), &[0]);
    e_forged.endorsements[0].signature = Signature(Digest::of(b"forged"));
    let stale = |nonce: u64| RwSet {
        reads: vec![KvRead {
            key: StateKey::new("cc", "hot"),
            version: None,
        }],
        writes: vec![KvWrite {
            key: StateKey::new("cc", "hot"),
            value: Some(vec![nonce as u8]),
        }],
    };
    let e_win = envelope(&net, 3, stale(3), &[0]);
    let e_lose = envelope(&net, 4, stale(4), &[0]);

    let block = raws(&[e_valid.clone(), e_forged, e_win, e_lose]);
    let want = oracle.commit(&block);
    assert_eq!(
        want.codes,
        vec![
            ValidationCode::Valid,
            ValidationCode::BadSignature,
            ValidationCode::Valid,
            ValidationCode::MvccReadConflict,
        ]
    );
    let out = commit(&mut c, block, Some(&mut cache));
    assert_block_agrees(&c, &out, &want, "mixed");

    let dup = raws(&[e_valid]);
    let want = oracle.commit(&dup);
    assert_eq!(want.codes, vec![ValidationCode::DuplicateTxId]);
    let b2 = Block::build(c.height(), c.store().tip_hash(), dup);
    let verdicts = c.vscc_block(&b2, Some(&mut cache));
    assert_eq!(verdicts[0].sig_hits, 1); // same (cert, msg, sig) as block 1
    let out = c.commit_block_prevalidated(b2, verdicts).unwrap();
    assert_block_agrees(&c, &out, &want, "duplicate");
    assert_eq!(oracle.state.state_hash(), c.state().state_hash());
}

/// A toy indexer: keys `rec~<item>` carry a comma-separated parent list
/// as their value.
#[derive(Debug)]
struct TestIndexer;

impl GraphIndexer for TestIndexer {
    fn index(&self, key: &StateKey, value: Option<&[u8]>) -> Option<GraphUpdate> {
        let item = key.key.strip_prefix("rec~")?.to_owned();
        Some(match value {
            Some(bytes) => GraphUpdate::Insert {
                key: item,
                parents: String::from_utf8_lossy(bytes)
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_owned)
                    .collect(),
            },
            None => GraphUpdate::Remove { key: item },
        })
    }
}

#[test]
fn graph_index_matches_oracle() {
    let net = net();
    let policy = EndorsementPolicy::any_of([MspId::new("org1")]);
    let mut oracle =
        SerialOracle::new(net.msp.clone(), policy.clone()).with_indexer(Arc::new(TestIndexer));
    let mut c = Committer::new(net.msp.clone(), ChannelPolicies::new(policy))
        .with_indexer(Arc::new(TestIndexer));

    let block = raws(&[
        envelope(&net, 1, write_rwset("rec~a", b""), &[0]),
        envelope(&net, 2, write_rwset("rec~b", b"a,gone"), &[0]),
    ]);
    let want = oracle.commit(&block);
    let out = commit(&mut c, block, None);
    assert_block_agrees(&c, &out, &want, "graph");
    assert_eq!(out.dangling_parents, 1);
    let (_, graph) = oracle.graph.as_ref().unwrap();
    assert_eq!(c.graph().digest(), graph.digest());
    assert!(c.graph_consistent());
}

proptest! {
    #[test]
    fn split_commit_matches_serial_on_any_seed(seed in any::<u64>()) {
        assert_equivalent(seed);
    }
}
