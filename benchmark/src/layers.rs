//! Per-layer metrics of a traced repetition.
//!
//! Everything here goes through the program's public API: the span
//! tracer (`Simulation::set_tracer`), the host profiler
//! (`Simulation::enable_profiler`), the kernel's hot counters and
//! metrics registry, and, after the run, the benchmark's own timed calls
//! into peer 0's final ledgers.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

use hyperprov::{
    ChannelRouter, HashRouter, HyperProvNetwork, NodeMsg, SnapshotPolicy, MAX_GRAPH_NODES,
};
use hyperprov_ledger::{BlockStore, Direction, StateKey, TraversalLimits, ValidationCode};
use hyperprov_sim::{HotCounters, SimTime, Simulation};

use crate::drive::{HostTimes, ModelMetrics};
use crate::stats::{median, Samples};
use crate::workload::Plan;

/// A metric value and the number of samples behind it (1 for a scalar).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    /// The value, in the catalogue's unit.
    pub value: f64,
    /// How many samples it was computed from.
    pub samples: usize,
}

/// Per-layer metrics by catalogue name.
pub type Layers = BTreeMap<&'static str, Value>;

/// The actor labels the profiler attributes handler time to.
const LABELS: [&str; 4] = ["peer", "orderer", "storage", "client"];

/// Counters at one instant, for deltas over the measured phase.
#[derive(Debug, Clone)]
pub struct ProfileMark {
    events: u64,
    hot: HotCounters,
    handler_wall: f64,
    label_wall: [f64; 4],
    retries: u64,
    offchain_bytes: u64,
    spans: u64,
    /// Peer 0's height on each channel.
    heights: Vec<u64>,
}

impl ProfileMark {
    /// Reads the counters now.
    pub fn take(sim: &Simulation<NodeMsg>, net_heights: Vec<u64>) -> ProfileMark {
        let profiler = sim.profiler();
        let mut label_wall = [0.0; 4];
        if profiler.is_enabled() {
            let json = profiler.snapshot_json(sim.events_processed(), sim.hot_counters());
            for (slot, label) in label_wall.iter_mut().zip(LABELS) {
                *slot = handler_wall_s(&json, label);
            }
        }
        let metrics = sim.metrics();
        ProfileMark {
            events: sim.events_processed(),
            hot: sim.hot_counters(),
            handler_wall: profiler.handler_wall().as_secs_f64(),
            label_wall,
            retries: metrics.counter("client.retries"),
            offchain_bytes: metrics.counter("storage.bytes_in")
                + metrics.counter("storage.bytes_out"),
            spans: sim.tracer().spans_started(),
            heights: net_heights,
        }
    }
}

/// `b - a`, counter by counter.
fn hot_delta(a: HotCounters, b: HotCounters) -> HotCounters {
    HotCounters {
        events_enqueued: b.events_enqueued - a.events_enqueued,
        messages_sent: b.messages_sent - a.messages_sent,
        timers_set: b.timers_set - a.timers_set,
        cpu_jobs: b.cpu_jobs - a.cpu_jobs,
    }
}

/// Peer 0's height on every channel it hosts, in shard order.
pub fn peer0_heights(net: &HyperProvNetwork) -> Vec<u64> {
    net.channel_ledgers
        .iter()
        .map(|hosts| hosts[0].1.borrow().height())
        .collect()
}

/// `handlers.<label>.wall_s` from a profiler snapshot (0 if absent).
fn handler_wall_s(json: &str, label: &str) -> f64 {
    let Some(handlers) = json.find("\"handlers\":{") else {
        return 0.0;
    };
    let rest = &json[handlers..];
    let Some(at) = rest.find(&format!("\"{label}\":{{")) else {
        return 0.0;
    };
    let rest = &rest[at..];
    let Some(wall) = rest.find("\"wall_s\":") else {
        return 0.0;
    };
    let value = &rest[wall + "\"wall_s\":".len()..];
    let end = value.find([',', '}']).unwrap_or(value.len());
    value[..end].parse().unwrap_or(0.0)
}

/// What [`collect`] reads.
#[derive(Debug)]
pub struct LayerInputs<'a> {
    /// The drained network.
    pub net: &'a HyperProvNetwork,
    /// The plan it ran.
    pub plan: &'a Plan,
    /// The repetition's model metrics.
    pub model: &'a ModelMetrics,
    /// The repetition's host times.
    pub host: HostTimes,
    /// Virtual start of the measured window.
    pub window_start: SimTime,
    /// Open-loop operations fired in the timed phase; each is one
    /// generator timer event, not the program's.
    pub timed_ops: u64,
    /// Counters at the start of the measured phase.
    pub start: ProfileMark,
    /// Counters at the end of the measured phase.
    pub end: ProfileMark,
}

/// Host seconds of `f`, with its result.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let clock = Instant::now();
    let out = f();
    (clock.elapsed().as_secs_f64(), out)
}

/// Computes every per-layer metric; the second value lists ledger
/// round-trips that failed (replay, snapshot restore, codec).
pub fn collect(inp: &LayerInputs<'_>) -> (Layers, Vec<String>) {
    let mut out = Layers::new();
    let mut violations = Vec::new();
    let mut put = |name: &'static str, value: f64, samples: usize| {
        out.insert(name, Value { value, samples });
    };
    // Per-op counts divide by the operations fired in the timed phase
    // (measured and cool-down), whose work the counters there cover.
    let ops = inp.timed_ops.max(1) as f64;
    let (a, b) = (&inp.start, &inp.end);

    // sim: event kernel and queue.
    let hot = hot_delta(a.hot, b.hot);
    let handler_s = b.handler_wall - a.handler_wall;
    // The generator's own timer (one per operation) is not the program's.
    let events = (b.events - a.events).saturating_sub(inp.timed_ops);
    put("sim.events_per_op", events as f64 / ops, 1);
    put("sim.messages_per_op", hot.messages_sent as f64 / ops, 1);
    put("sim.timers_per_op", hot.timers_set as f64 / ops, 1);
    put("sim.cpu_jobs_per_op", hot.cpu_jobs as f64 / ops, 1);
    put("sim.kernel_s", inp.host.measured_s - handler_s, 1);
    put("trace.spans_per_op", (b.spans - a.spans) as f64 / ops, 1);
    let wall = |label: usize| b.label_wall[label] - a.label_wall[label];

    // core: client, router, set-up.
    put("client.handler_s", wall(3), 1);
    put("client.hung", inp.model.hung as f64, 1);
    put("client.errors", inp.model.errors as f64, 1);
    put("client.retries", (b.retries - a.retries) as f64, 1);
    put("setup.build_s", inp.host.build_s, 1);
    put("setup.preload_s", inp.host.preload_s, 1);
    put("setup.warmup_s", inp.host.warmup_s, 1);

    // Pipeline stages from the spans that opened in the measured window.
    let mut stages: HashMap<&'static str, Vec<f64>> = HashMap::new();
    for span in inp.net.sim.tracer().finished_spans() {
        if span.start >= inp.window_start {
            stages
                .entry(span.stage)
                .or_default()
                .push(span.duration().as_nanos() as f64 / 1e6);
        }
    }
    let stages: HashMap<&'static str, Samples> = stages
        .into_iter()
        .map(|(k, v)| (k, Samples::new(v)))
        .collect();
    let empty = Samples::default();
    let mut pct = |name: &'static str, stage: &str, p: f64| {
        let s = stages.get(stage).unwrap_or(&empty);
        put(name, s.quantile(p), s.len());
    };
    pct("endorse.p50_ms", "endorse", 0.5);
    pct("endorse.p99_ms", "endorse", 0.99);
    pct("endorse.exec.p50_ms", "endorse.exec", 0.5);
    pct("order.queue.p50_ms", "order.queue", 0.5);
    pct("order.queue.p99_ms", "order.queue", 0.99);
    pct("validate.p50_ms", "validate", 0.5);
    pct("validate.p99_ms", "validate", 0.99);
    pct("commit.vscc.p50_ms", "commit.vscc", 0.5);
    pct("commit.apply.p50_ms", "commit.apply", 0.5);
    pct("commit.apply.p99_ms", "commit.apply", 0.99);
    pct("query.p50_ms", "query", 0.5);
    pct("query.p99_ms", "query", 0.99);
    pct("offchain.put.p50_ms", "offchain.put", 0.5);
    pct("offchain.get.p50_ms", "offchain.get", 0.5);
    pct("offchain.server.p50_ms", "offchain.server", 0.5);
    put("peer.handler_s", wall(0), 1);
    put("orderer.handler_s", wall(1), 1);
    put("storage.handler_s", wall(2), 1);
    put(
        "offchain.bytes",
        (b.offchain_bytes - a.offchain_bytes) as f64,
        1,
    );

    // Blocks peer 0 committed during the measured phase.
    let (mut blocks, mut txs, mut valid) = (0u64, 0u64, 0u64);
    let peer0: Vec<_> = inp
        .net
        .channel_ledgers
        .iter()
        .map(|hosts| hosts[0].1.clone())
        .collect();
    for (ci, ledger) in peer0.iter().enumerate() {
        let ledger = ledger.borrow();
        for n in a.heights[ci]..b.heights[ci] {
            let block = ledger
                .store()
                .block(n)
                .expect("committed block is retained");
            blocks += 1;
            txs += block.envelopes.len() as u64;
            valid += block
                .metadata
                .codes
                .iter()
                .filter(|c| **c == ValidationCode::Valid)
                .count() as u64;
        }
    }
    put("order.blocks", blocks as f64, 1);
    put(
        "order.txs_per_block",
        txs as f64 / blocks.max(1) as f64,
        blocks as usize,
    );
    put(
        "committer.valid_ratio",
        valid as f64 / txs.max(1) as f64,
        txs as usize,
    );

    // ledger: the benchmark's own calls on peer 0's final ledgers.
    let shards = peer0.len();
    let (mut keys_n, mut nodes_n, mut chain_bytes, mut tx_total, mut height_total) =
        (0usize, 0usize, 0usize, 0u64, 0u64);
    let (mut get_s, mut gets) = (0.0, 0usize);
    let (mut trav_s, mut travs) = (0.0, 0usize);
    let (mut replay_s, mut verify_s, mut enc_s, mut dec_s, mut cut_s, mut restore_s) =
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    let mut plan_keys: Vec<&String> = inp.plan.items.keys().collect();
    plan_keys.sort();
    for (ci, ledger) in peer0.iter().enumerate() {
        let c = ledger.borrow();
        keys_n += c.state().len();
        nodes_n += c.graph().len();
        tx_total += c.store().tx_count();
        height_total += c.height();

        let keys: Vec<StateKey> = c.state().iter().map(|(k, _)| k.clone()).collect();
        let passes: Vec<f64> = (0..3)
            .map(|_| {
                timed(|| {
                    for k in &keys {
                        black_box(c.state().get(black_box(k)));
                    }
                })
                .0
            })
            .collect();
        get_s += median(&passes);
        gets += keys.len();

        let roots: Vec<&String> = plan_keys
            .iter()
            .copied()
            .filter(|k| HashRouter.route(k, shards) == ci && c.graph().contains(k))
            .collect();
        let stride = (roots.len() / 256).max(1);
        let sample: Vec<[(u32, String); 1]> = roots
            .iter()
            .step_by(stride)
            .map(|k| [(0, (*k).clone())])
            .collect();
        let limits = TraversalLimits {
            max_depth: 8,
            max_nodes: MAX_GRAPH_NODES,
        };
        let passes: Vec<f64> = (0..3)
            .map(|_| {
                timed(|| {
                    for root in &sample {
                        black_box(
                            c.graph()
                                .traverse(root, Direction::Ancestors, limits, false),
                        );
                    }
                })
                .0
            })
            .collect();
        trav_s += median(&passes);
        travs += sample.len();

        let (s, replayed) = timed(|| c.recover());
        replay_s += s;
        match replayed {
            Ok(r) if r.state().state_hash() == c.state().state_hash() => {}
            _ => violations.push(format!("channel {ci}: replay diverged")),
        }
        let (s, ok) = timed(|| c.store().verify_chain().is_ok());
        verify_s += s;
        if !ok {
            violations.push(format!("channel {ci}: chain does not verify"));
        }
        let mut buf = Vec::new();
        let (s, res) = timed(|| c.store().write_to(&mut buf));
        enc_s += s;
        chain_bytes += buf.len();
        let (s, decoded) = timed(|| BlockStore::read_from(&buf[..]));
        dec_s += s;
        match (res, decoded) {
            (Ok(()), Ok(d)) if d.tip_hash() == c.store().tip_hash() => {}
            _ => violations.push(format!("channel {ci}: block store codec round trip failed")),
        }
        let (s, snap) = timed(|| c.snapshot(SnapshotPolicy::default().chunk_entries));
        cut_s += s;
        let (s, restored) = timed(|| c.recover_from_snapshot(&snap));
        restore_s += s;
        match restored {
            Ok(r) if r.state().state_hash() == c.state().state_hash() => {}
            _ => violations.push(format!("channel {ci}: snapshot restore diverged")),
        }
    }
    put(
        "ledger.statedb.get_ns",
        get_s * 1e9 / gets.max(1) as f64,
        gets,
    );
    put(
        "ledger.provgraph.traverse_us",
        trav_s * 1e6 / travs.max(1) as f64,
        travs,
    );
    put("ledger.state_keys", keys_n as f64, 1);
    put("ledger.graph_nodes", nodes_n as f64, 1);
    put(
        "ledger.replay_us_per_tx",
        replay_s * 1e6 / tx_total.max(1) as f64,
        tx_total as usize,
    );
    put(
        "ledger.verify_chain_us_per_block",
        verify_s * 1e6 / height_total.max(1) as f64,
        height_total as usize,
    );
    put(
        "ledger.encode_mb_s",
        chain_bytes as f64 / 1e6 / enc_s.max(1e-9),
        1,
    );
    put(
        "ledger.decode_mb_s",
        chain_bytes as f64 / 1e6 / dec_s.max(1e-9),
        1,
    );
    put("ledger.chain_bytes", chain_bytes as f64, 1);
    put(
        "ledger.bytes_per_op",
        chain_bytes as f64 / tx_total.max(1) as f64,
        tx_total as usize,
    );
    put("ledger.snapshot.cut_ms", cut_s * 1e3, shards);
    put("ledger.snapshot.restore_ms", restore_s * 1e3, shards);

    // device: modelled peer load and power.
    put(
        "device.peer_util",
        inp.model.peer_util(),
        inp.net.peers.len(),
    );
    put(
        "device.peer_watts",
        inp.model.peer_watts(),
        inp.net.peers.len(),
    );
    (out, violations)
}
