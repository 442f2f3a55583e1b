//! The three workloads and their seeded command streams.
//!
//! A [`Plan`] is a pure function of `(workload, seed, size)`: the network
//! configuration, the preload waves, and one open-loop schedule whose
//! first `warmup` operations belong to set-up and whose remainder is the
//! measured phase. The program under test only ever sees the generated
//! commands; the plan also keeps the item model (checksums and parent
//! links) the outcome checks compare against.

use std::collections::HashMap;

use hyperprov::{ChannelRouter, ClientCommand, HashRouter, NetworkConfig, OpId, RecordInput};
use hyperprov_ledger::{Digest, Sha256};
use hyperprov_sim::SimDuration;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// RPi testbed, 8 clients, ~60 ops/s: payload writes with a few reads.
    EdgeIngest,
    /// Desktop testbed, 4 channels, 16 clients, a preloaded DAG, 90 %
    /// reads.
    LineageMix,
    /// Desktop testbed, 3-member Raft, 1,000 clients, metadata posts.
    Population,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::EdgeIngest,
        Workload::LineageMix,
        Workload::Population,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EdgeIngest => "edge_ingest",
            Workload::LineageMix => "lineage_mix",
            Workload::Population => "population",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How much work one repetition of a workload does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// Preload waves (each committed before the next is submitted).
    pub waves: usize,
    /// Items per preload wave.
    pub per_wave: usize,
    /// Open-loop operations that belong to set-up (warm-up).
    pub warmup: usize,
    /// Open-loop operations in the measured phase.
    pub measured: usize,
    /// Open-loop operations after the measured ones (cool-down), so the
    /// last measured writes do not wait out a batch timeout alone.
    pub cooldown: usize,
    /// Independent shards a run pools its model samples from.
    pub shards: usize,
}

impl Size {
    /// The size the benchmark command runs.
    pub fn full(workload: Workload) -> Size {
        match workload {
            Workload::EdgeIngest => Size {
                waves: 1,
                per_wave: 100,
                warmup: 300,
                measured: 6_000,
                cooldown: 120,
                shards: 6,
            },
            Workload::LineageMix => Size {
                waves: 10,
                per_wave: 1_000,
                warmup: 400,
                measured: 45_000,
                cooldown: 600,
                shards: 1,
            },
            Workload::Population => Size {
                waves: 1,
                per_wave: 200,
                warmup: 200,
                measured: 2_000,
                cooldown: 100,
                shards: 6,
            },
        }
    }

    /// A tiny size for the self-tests.
    pub fn smoke(workload: Workload) -> Size {
        match workload {
            Workload::EdgeIngest => Size {
                waves: 1,
                per_wave: 20,
                warmup: 30,
                measured: 150,
                cooldown: 20,
                shards: 2,
            },
            Workload::LineageMix => Size {
                waves: 4,
                per_wave: 100,
                warmup: 40,
                measured: 300,
                cooldown: 60,
                shards: 2,
            },
            Workload::Population => Size {
                waves: 1,
                per_wave: 50,
                warmup: 40,
                measured: 200,
                cooldown: 40,
                shards: 2,
            },
        }
    }
}

/// Whether an operation counts toward the write or the read latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// `StoreData` / `Post`: latency until the commit event arrives.
    Write,
    /// `Get` / `GetData` / `GetHistory` / `GetAncestry` / `GetLineage`.
    Read,
}

/// One scheduled operation.
#[derive(Debug, Clone)]
pub struct Op {
    /// Due time, relative to the start of its phase.
    pub due: SimDuration,
    /// Index of the client that submits it.
    pub client: usize,
    /// Write or read.
    pub class: OpClass,
    /// The command (its op id is unique within the plan).
    pub cmd: ClientCommand,
}

/// What the benchmark knows about one item it wrote.
#[derive(Debug, Clone)]
pub struct Item {
    /// Checksum of the payload (or of the key, for metadata-only items).
    pub checksum: Digest,
    /// Payload size in bytes (0 for metadata-only items).
    pub size: u64,
    /// Parent item keys.
    pub parents: Vec<String>,
}

/// A generated workload: configuration, commands and the item model.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// The deployment.
    pub config: NetworkConfig,
    /// Preload waves, each submitted at once and committed before the next.
    pub preload: Vec<Vec<Op>>,
    /// The open-loop schedule; due times are relative to its start.
    pub open_loop: Vec<Op>,
    /// How many leading `open_loop` operations are warm-up.
    pub warmup: usize,
    /// How many trailing `open_loop` operations are cool-down.
    pub cooldown: usize,
    /// Every item the plan writes, by key.
    pub items: HashMap<String, Item>,
}

impl Plan {
    /// The measured operations.
    pub fn measured(&self) -> &[Op] {
        &self.open_loop[self.warmup..self.open_loop.len() - self.cooldown]
    }

    /// A digest of the whole command stream (due times, clients and
    /// commands, payload bytes included).
    pub fn stream_digest(&self) -> Digest {
        let mut h = Sha256::new();
        for op in self.preload.iter().flatten().chain(&self.open_loop) {
            h.update(&op.due.as_nanos().to_be_bytes());
            h.update(&(op.client as u64).to_be_bytes());
            match &op.cmd {
                ClientCommand::StoreData {
                    key, data, parents, ..
                } => {
                    h.update(format!("store {key} {parents:?} {}", data.len()).as_bytes());
                    h.update(data);
                }
                other => h.update(format!("{other:?}").as_bytes()),
            }
        }
        h.finalize()
    }

    /// A digest of the deployment and the workload shape, for the
    /// provenance stamp.
    pub fn config_digest(&self) -> Digest {
        let size = (
            self.preload.len(),
            self.preload.first().map_or(0, Vec::len),
            self.warmup,
            self.measured().len(),
            self.cooldown,
        );
        Digest::of(format!("{} {size:?} {:?}", self.workload.name(), self.config).as_bytes())
    }
}

/// SplitMix64: a tiny, stable generator, so the command stream depends
/// on nothing but the seed and this file.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> SplitMix {
        let mut g = SplitMix(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        g.next_u64();
        g
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    /// An exponential inter-arrival gap for a Poisson process of `rate`
    /// events per second.
    pub fn poisson_gap(&mut self, rate: f64) -> SimDuration {
        SimDuration::from_secs_f64(-(1.0 - self.unit()).ln() / rate)
    }

    /// `len` random bytes.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(len);
        out
    }
}

/// How long after its due time a write counts as committed, so later
/// operations may read it or name it as a parent. Far above every
/// workload's write p99.
const COMMIT_LAG: SimDuration = SimDuration::from_secs(10);

/// Builds the plan for `workload` at `seed` and `size`.
pub fn plan(workload: Workload, seed: u64, size: Size) -> Plan {
    let mut b = PlanGen::new(workload, seed, size);
    match workload {
        Workload::EdgeIngest => b.edge_ingest(),
        Workload::LineageMix => b.lineage_mix(),
        Workload::Population => b.population(),
    }
    b.finish()
}

/// Writes that become readable once the schedule passes their due time
/// plus [`COMMIT_LAG`].
#[derive(Debug, Default)]
struct Committed {
    /// Readable item keys, per shard.
    ready: Vec<Vec<String>>,
    /// `(due, shard, key)` of writes not yet readable, in due order.
    pending: std::collections::VecDeque<(SimDuration, usize, String)>,
}

impl Committed {
    fn new(shards: usize) -> Committed {
        Committed {
            ready: vec![Vec::new(); shards],
            pending: Default::default(),
        }
    }

    fn advance(&mut self, now: SimDuration) {
        while let Some((due, _, _)) = self.pending.front() {
            if due.saturating_add(COMMIT_LAG) > now {
                break;
            }
            let (_, shard, key) = self.pending.pop_front().expect("front exists");
            self.ready[shard].push(key);
        }
    }

    fn total(&self) -> usize {
        self.ready.iter().map(Vec::len).sum()
    }

    /// A uniformly drawn readable key on any shard.
    fn any(&self, rng: &mut SplitMix) -> String {
        let mut i = rng.below(self.total());
        for shard in &self.ready {
            if i < shard.len() {
                return shard[i].clone();
            }
            i -= shard.len();
        }
        unreachable!("index below the total")
    }

    /// Up to `n` distinct readable keys on `shard`.
    fn parents(&self, rng: &mut SplitMix, shard: usize, n: usize) -> Vec<String> {
        pick(rng, &self.ready[shard], n)
    }
}

/// Up to `n` distinct keys drawn from `pool` (fewer on repeats).
fn pick(rng: &mut SplitMix, pool: &[String], n: usize) -> Vec<String> {
    let mut out: Vec<String> = Vec::with_capacity(n);
    for _ in 0..n.min(pool.len()) {
        let key = &pool[rng.below(pool.len())];
        if !out.contains(key) {
            out.push(key.clone());
        }
    }
    out
}

struct PlanGen {
    workload: Workload,
    size: Size,
    rng: SplitMix,
    config: NetworkConfig,
    shards: usize,
    next_op: u64,
    preload: Vec<Vec<Op>>,
    open_loop: Vec<Op>,
    items: HashMap<String, Item>,
}

impl PlanGen {
    fn new(workload: Workload, seed: u64, size: Size) -> PlanGen {
        let config = match workload {
            Workload::EdgeIngest => NetworkConfig::rpi(8),
            Workload::LineageMix => NetworkConfig::desktop(16).with_channels(4),
            Workload::Population => NetworkConfig::desktop(1_000).with_raft_orderers(3),
        }
        .with_seed(seed);
        PlanGen {
            workload,
            size,
            rng: SplitMix::new(seed, workload as u64),
            shards: config.channels.len(),
            config,
            next_op: 0,
            preload: Vec::new(),
            open_loop: Vec::new(),
            items: HashMap::new(),
        }
    }

    fn clients(&self) -> usize {
        self.config.client_devices.len()
    }

    fn shard_of(&self, key: &str) -> usize {
        HashRouter.route(key, self.shards)
    }

    fn op_id(&mut self) -> OpId {
        self.next_op += 1;
        OpId(self.next_op)
    }

    /// A `StoreData` with a log-uniform 1–64 KiB payload.
    fn store_data(&mut self, key: String, parents: Vec<String>) -> ClientCommand {
        let len = (1024.0 * 64f64.powf(self.rng.unit())) as usize;
        let data = self.rng.bytes(len);
        self.items.insert(
            key.clone(),
            Item {
                checksum: Digest::of(&data),
                size: len as u64,
                parents: parents.clone(),
            },
        );
        ClientCommand::StoreData {
            key,
            data,
            parents,
            metadata: vec![("source".to_owned(), "sensor".to_owned())],
            op: self.op_id(),
        }
    }

    /// A metadata-only `Post` whose checksum is the key's digest.
    fn post(&mut self, key: String, parents: Vec<String>) -> ClientCommand {
        let checksum = Digest::of(key.as_bytes());
        self.items.insert(
            key.clone(),
            Item {
                checksum,
                size: 0,
                parents: parents.clone(),
            },
        );
        ClientCommand::Post {
            key,
            input: RecordInput::new(checksum).with_parents(parents),
            op: self.op_id(),
        }
    }

    /// Adds a preload wave of writes, handed to the clients in turn.
    fn preload_wave(&mut self, cmds: Vec<ClientCommand>) {
        let clients = self.clients();
        let ops = cmds
            .into_iter()
            .enumerate()
            .map(|(j, cmd)| Op {
                due: SimDuration::ZERO,
                client: j % clients,
                class: OpClass::Write,
                cmd,
            })
            .collect();
        self.preload.push(ops);
    }

    /// Open-loop operations the size asks for.
    fn open_loop_len(&self) -> usize {
        self.size.warmup + self.size.measured + self.size.cooldown
    }

    fn schedule(&mut self, due: SimDuration, class: OpClass, cmd: ClientCommand) {
        let client = self.rng.below(self.clients());
        self.open_loop.push(Op {
            due,
            client,
            class,
            cmd,
        });
    }

    /// Paper's IoT case: 90 % `StoreData` with 0–2 committed parents,
    /// 10 % `GetData` of a committed item, Poisson arrivals at 60 ops/s.
    fn edge_ingest(&mut self) {
        let mut committed = Committed::new(1);
        for wave in 0..self.size.waves {
            let mut cmds = Vec::new();
            for j in 0..self.size.per_wave {
                let key = format!("edge-pre-{wave}-{j:04}");
                cmds.push(self.store_data(key.clone(), Vec::new()));
                committed.ready[0].push(key);
            }
            self.preload_wave(cmds);
        }
        let mut now = SimDuration::ZERO;
        for i in 0..self.open_loop_len() {
            now = now.saturating_add(self.rng.poisson_gap(60.0));
            committed.advance(now);
            if self.rng.unit() < 0.9 {
                let n = self.rng.below(3);
                let parents = committed.parents(&mut self.rng, 0, n);
                let key = format!("edge-{i:06}");
                let cmd = self.store_data(key.clone(), parents);
                self.schedule(now, OpClass::Write, cmd);
                committed.pending.push_back((now, 0, key));
            } else {
                let key = committed.any(&mut self.rng);
                let cmd = ClientCommand::GetData {
                    key,
                    op: self.op_id(),
                };
                self.schedule(now, OpClass::Read, cmd);
            }
        }
    }

    /// Reads beside writes over a preloaded DAG: 90 % reads (60 `Get`,
    /// 20 `GetAncestry` depth 8, 10 `GetLineage` depth 4, 10
    /// `GetHistory`) and 10 % `Post` with 1–2 same-shard parents, Poisson
    /// arrivals at 200 ops/s over 4 shards.
    fn lineage_mix(&mut self) {
        let mut committed = Committed::new(self.shards);
        let mut previous: Vec<Vec<String>> = vec![Vec::new(); self.shards];
        for wave in 0..self.size.waves {
            let mut cmds = Vec::new();
            let mut this: Vec<Vec<String>> = vec![Vec::new(); self.shards];
            for j in 0..self.size.per_wave {
                let key = format!("lin-{wave:02}-{j:04}");
                let shard = self.shard_of(&key);
                // One or two parents from the previous wave on the same
                // shard, so the DAG is as deep as the preload has waves.
                let n = if self.rng.unit() < 0.3 { 2 } else { 1 };
                let parents = pick(&mut self.rng, &previous[shard], n);
                cmds.push(self.post(key.clone(), parents));
                this[shard].push(key.clone());
                committed.ready[shard].push(key);
            }
            previous = this;
            self.preload_wave(cmds);
        }
        let mut now = SimDuration::ZERO;
        for i in 0..self.open_loop_len() {
            now = now.saturating_add(self.rng.poisson_gap(200.0));
            committed.advance(now);
            let roll = self.rng.below(100);
            if roll < 10 {
                let key = format!("lin-post-{i:06}");
                let shard = self.shard_of(&key);
                let n = 1 + self.rng.below(2);
                let parents = committed.parents(&mut self.rng, shard, n);
                let cmd = self.post(key.clone(), parents);
                self.schedule(now, OpClass::Write, cmd);
                committed.pending.push_back((now, shard, key));
                continue;
            }
            let key = committed.any(&mut self.rng);
            let op = self.op_id();
            let cmd = match roll {
                10..=63 => ClientCommand::Get { key, op },
                64..=81 => ClientCommand::GetAncestry { key, depth: 8, op },
                82..=90 => ClientCommand::GetLineage { key, depth: 4, op },
                _ => ClientCommand::GetHistory { key, op },
            };
            self.schedule(now, OpClass::Read, cmd);
        }
    }

    /// Many clients over Raft: 80 % metadata-only posts with unique keys
    /// and 20 % `Get`s of committed items, Poisson arrivals at 200 ops/s.
    fn population(&mut self) {
        let mut committed = Committed::new(1);
        for wave in 0..self.size.waves {
            let mut cmds = Vec::new();
            for j in 0..self.size.per_wave {
                let key = format!("pop-pre-{wave}-{j:05}");
                cmds.push(self.post(key.clone(), Vec::new()));
                committed.ready[0].push(key);
            }
            self.preload_wave(cmds);
        }
        let mut now = SimDuration::ZERO;
        for i in 0..self.open_loop_len() {
            now = now.saturating_add(self.rng.poisson_gap(200.0));
            committed.advance(now);
            if self.rng.unit() < 0.8 {
                let key = format!("pop-{i:07}");
                let cmd = self.post(key.clone(), Vec::new());
                self.schedule(now, OpClass::Write, cmd);
                committed.pending.push_back((now, 0, key));
            } else {
                let key = committed.any(&mut self.rng);
                let cmd = ClientCommand::Get {
                    key,
                    op: self.op_id(),
                };
                self.schedule(now, OpClass::Read, cmd);
            }
        }
    }

    fn finish(self) -> Plan {
        Plan {
            workload: self.workload,
            config: self.config,
            preload: self.preload,
            open_loop: self.open_loop,
            warmup: self.size.warmup,
            cooldown: self.size.cooldown,
            items: self.items,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn lineage_parents_stay_on_the_childs_shard() {
        let p = plan(Workload::LineageMix, 3, Size::smoke(Workload::LineageMix));
        for (key, item) in &p.items {
            for parent in &item.parents {
                assert_eq!(HashRouter.route(key, 4), HashRouter.route(parent, 4));
            }
        }
    }

    #[test]
    fn mix_matches_the_stated_shares() {
        let p = plan(Workload::LineageMix, 5, Size::full(Workload::LineageMix));
        let writes = p
            .measured()
            .iter()
            .filter(|op| op.class == OpClass::Write)
            .count();
        let share = writes as f64 / p.measured().len() as f64;
        assert!((0.08..0.12).contains(&share), "write share {share}");
    }
}
