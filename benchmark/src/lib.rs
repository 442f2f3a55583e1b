//! The repository benchmark for the HyperProv simulator.
//!
//! One command runs a named workload at a seed on the public API
//! (`HyperProvNetwork::build`, `Simulation::run_until`, `inject_message`
//! and `add_actor`, the client completion queues), checks every result
//! and audits the ledgers, and prints each metric with its unit, clock
//! and sample count. Two clocks are kept apart:
//!
//! * **model** — virtual-time latency, goodput and energy; identical for
//!   a seed on every run and every machine;
//! * **host** — the simulator's own cost: throughput, set-up time and
//!   peak memory. Host times and rates are put on a reference-host
//!   scale: a fixed standard-library kernel runs around every
//!   repetition and gauges how fast the machine is during the run (see
//!   [`calib`]), so the machine's own speed drift between runs cancels
//!   out while a change to the program still shows.
//!
//! A run splits the workload into a fixed number of shards, each a
//! fresh network driven by its own seed derived from the run's seed, so
//! the model metrics pool enough samples without one network growing
//! large. It cycles through the shards until its time budget is spent,
//! reports host metrics as medians over repetitions, and requires every
//! repeat of a shard to reproduce that shard's model metrics bit for
//! bit. With tracing on, odd repetitions are traced; they give the
//! per-layer metrics and the tracing overhead.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod calib;
pub mod drive;
pub mod layers;
pub mod stamp;
pub mod stats;
pub mod workload;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::drive::Rep;
use crate::layers::{Layers, Value};
use crate::stats::median;
use crate::workload::{plan, Size, Workload};

/// Which clock a metric is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Virtual time: deterministic for a seed.
    Model,
    /// Host wall time or memory.
    Host,
}

/// One metric of the catalogue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Def {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// The clock it is read from.
    pub clock: Clock,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str, clock: Clock) -> Def {
    Def {
        name,
        unit,
        better,
        clock,
    }
}

use Clock::{Host, Model};

/// End-to-end metrics, printed by an untraced run.
pub const END_TO_END: [Def; 9] = [
    def("write_p50_ms", "ms", "lower", Model),
    def("write_p99_ms", "ms", "lower", Model),
    def("read_p50_ms", "ms", "lower", Model),
    def("read_p99_ms", "ms", "lower", Model),
    def("goodput_ops_s", "1/s", "higher", Model),
    def("energy_mj_per_op", "mJ", "lower", Model),
    def("host_ops_s", "1/s", "higher", Host),
    def("setup_s", "s", "lower", Host),
    def("peak_rss_mib", "MiB", "lower", Host),
];

/// Per-layer metrics, printed by a traced run.
pub const PER_LAYER: [Def; 53] = [
    def("sim.events_per_op", "count", "lower", Model),
    def("sim.messages_per_op", "count", "lower", Model),
    def("sim.timers_per_op", "count", "lower", Model),
    def("sim.kernel_s", "s", "lower", Host),
    def("client.handler_s", "s", "lower", Host),
    def("client.hung", "count", "lower", Model),
    def("client.retries", "count", "lower", Model),
    def("setup.build_s", "s", "lower", Host),
    def("setup.preload_s", "s", "lower", Host),
    def("setup.warmup_s", "s", "lower", Host),
    def("endorse.p50_ms", "ms", "lower", Model),
    def("endorse.p99_ms", "ms", "lower", Model),
    def("endorse.exec.p50_ms", "ms", "lower", Model),
    def("peer.handler_s", "s", "lower", Host),
    def("order.queue.p50_ms", "ms", "lower", Model),
    def("order.queue.p99_ms", "ms", "lower", Model),
    def("order.txs_per_block", "count", "higher", Model),
    def("order.blocks", "count", "lower", Model),
    def("orderer.handler_s", "s", "lower", Host),
    def("validate.p50_ms", "ms", "lower", Model),
    def("validate.p99_ms", "ms", "lower", Model),
    def("commit.vscc.p50_ms", "ms", "lower", Model),
    def("commit.apply.p50_ms", "ms", "lower", Model),
    def("commit.apply.p99_ms", "ms", "lower", Model),
    def("committer.valid_ratio", "ratio", "higher", Model),
    def("query.p50_ms", "ms", "lower", Model),
    def("query.p99_ms", "ms", "lower", Model),
    def("offchain.put.p50_ms", "ms", "lower", Model),
    def("offchain.get.p50_ms", "ms", "lower", Model),
    def("offchain.server.p50_ms", "ms", "lower", Model),
    def("storage.handler_s", "s", "lower", Host),
    def("offchain.bytes", "B", "lower", Model),
    def("ledger.statedb.get_ns", "ns", "lower", Host),
    def("ledger.provgraph.traverse_us", "us", "lower", Host),
    def("ledger.state_keys", "count", "lower", Model),
    def("ledger.graph_nodes", "count", "lower", Model),
    def("ledger.replay_us_per_tx", "us", "lower", Host),
    def("ledger.verify_chain_us_per_block", "us", "lower", Host),
    def("ledger.encode_mb_s", "MB/s", "higher", Host),
    def("ledger.decode_mb_s", "MB/s", "higher", Host),
    def("ledger.chain_bytes", "B", "lower", Model),
    def("ledger.bytes_per_op", "B", "lower", Model),
    def("ledger.snapshot.cut_ms", "ms", "lower", Host),
    def("ledger.snapshot.restore_ms", "ms", "lower", Host),
    def("device.peer_util", "ratio", "lower", Model),
    def("device.peer_watts", "W", "lower", Model),
    def("trace.overhead_ratio", "ratio", "lower", Host),
    def("trace.host_ops_s", "1/s", "higher", Host),
    def("untraced.host_ops_s", "1/s", "higher", Host),
    def("trace.spans_per_op", "count", "lower", Model),
    def("client.errors", "count", "lower", Model),
    def("sim.cpu_jobs_per_op", "count", "lower", Model),
    def("host.speed", "ratio", "higher", Host),
];

/// Repetitions a run makes at least, whatever its time budget.
pub const MIN_REPS: usize = 3;

/// What one benchmark invocation asks for.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    /// The workload.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// Host-time budget for the repetitions.
    pub seconds: Duration,
    /// Alternate untraced and traced repetitions, and report per-layer
    /// metrics.
    pub trace: bool,
    /// How much work one repetition does.
    pub size: Size,
}

/// The outcome of a benchmark invocation.
#[derive(Debug)]
pub struct Report {
    /// What was asked.
    pub request: Request,
    /// Every repetition.
    pub reps: Vec<Repetition>,
    /// The host's speed against the reference host over the run.
    pub speed: f64,
    /// Model-clock metrics pooled over the first run of every shard.
    pub model: drive::ModelMetrics,
    /// End-to-end metrics.
    pub end_to_end: BTreeMap<&'static str, Value>,
    /// Per-layer metrics (traced runs only).
    pub layers: Option<Layers>,
    /// Correctness violations over all repetitions.
    pub violations: Vec<String>,
    /// The provenance stamp.
    pub stamp: stamp::Stamp,
}

impl Report {
    /// True when every output checked out and the audit was clean.
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// Measured operations submitted over all shards.
    pub fn attempted(&self) -> u64 {
        self.model.submitted
    }

    /// Measured operations that failed over all shards: errors plus hung.
    pub fn failed(&self) -> u64 {
        self.model.errors + self.model.hung
    }
}

/// The seed of shard `k` of a run at `seed`.
fn shard_seed(seed: u64, k: usize) -> u64 {
    workload::SplitMix::new(seed, 0x5eed_0000 + k as u64).next_u64()
}

/// One repetition with whether it was traced.
#[derive(Debug)]
pub struct Repetition {
    /// Whether the tracer and profiler were on.
    pub traced: bool,
    /// The outcome.
    pub rep: Rep,
}

/// Puts a host-clock value on the reference scale: times (`s`, `ms`,
/// `us`, `ns`) scale with the host's speed, rates (`/s`) against it,
/// ratios and counts not at all.
fn to_reference(def: &Def, value: f64, speed: f64) -> f64 {
    match (def.clock, def.unit) {
        (Host, "s" | "ms" | "us" | "ns") => value * speed,
        (Host, unit) if unit.ends_with("/s") => value / speed,
        _ => value,
    }
}

/// Runs repetitions until the time budget is spent, then reduces them.
///
/// Repetition `i` runs shard `i % shards`; every shard runs at least
/// once. With tracing asked for, odd repetitions are traced. The
/// reference kernel runs before and after each repetition; the median
/// of its times gives the run's host speed.
pub fn run(request: Request) -> Report {
    let deadline = Instant::now() + request.seconds;
    let shards = request.size.shards;
    let plan_of = |k: usize| plan(request.workload, shard_seed(request.seed, k), request.size);
    let first = plan_of(0);
    let stamp = stamp::Stamp::new(&first, request.seed, shards);
    let mut next = Some(first);
    let mut reps: Vec<Repetition> = Vec::new();
    let mut kernel = Vec::new();
    loop {
        let i = reps.len();
        let traced = request.trace && i % 2 == 1;
        let p = next.take().unwrap_or_else(|| plan_of(i % shards));
        kernel.push(calib::kernel_s());
        reps.push(Repetition {
            traced,
            rep: drive::run(p, traced),
        });
        kernel.push(calib::kernel_s());
        if reps.len() >= MIN_REPS.max(shards) && Instant::now() >= deadline {
            break;
        }
    }
    reduce(request, reps, &kernel, stamp)
}

fn reduce(request: Request, reps: Vec<Repetition>, kernel: &[f64], stamp: stamp::Stamp) -> Report {
    let shards = request.size.shards;
    let mut violations = Vec::new();
    for (i, r) in reps.iter().enumerate() {
        for v in &r.rep.violations {
            violations.push(format!("repetition {i}: {v}"));
        }
        if r.rep.model != reps[i % shards].rep.model {
            violations.push(format!(
                "repetition {i} (traced: {}) changed shard {}'s model-clock metrics",
                r.traced,
                i % shards
            ));
        }
    }
    let firsts: Vec<&drive::ModelMetrics> = reps[..shards].iter().map(|r| &r.rep.model).collect();
    let model = drive::ModelMetrics::pool(&firsts);
    let untraced: Vec<&Repetition> = reps.iter().filter(|r| !r.traced).collect();
    let traced: Vec<&Repetition> = reps.iter().filter(|r| r.traced).collect();
    let speed = calib::speed(kernel);
    let host_ops: Vec<f64> = untraced.iter().map(|r| r.rep.host_ops_s()).collect();
    let host_ops = median(&host_ops) / speed;
    let setup: Vec<f64> = untraced.iter().map(|r| r.rep.host.setup_s()).collect();

    let mut e2e = BTreeMap::new();
    let mut put = |name: &'static str, value: f64, samples: usize| {
        e2e.insert(name, Value { value, samples });
    };
    let (w, r) = (&model.write, &model.read);
    put("write_p50_ms", w.quantile(0.5), w.len());
    put("write_p99_ms", w.quantile(0.99), w.len());
    put("read_p50_ms", r.quantile(0.5), r.len());
    put("read_p99_ms", r.quantile(0.99), r.len());
    put(
        "goodput_ops_s",
        model.goodput_ops_s(),
        model.in_window as usize,
    );
    put(
        "energy_mj_per_op",
        model.energy_mj_per_op(),
        model.in_window as usize,
    );
    put("host_ops_s", host_ops, untraced.len());
    put("setup_s", median(&setup) * speed, setup.len());
    let rss = hyperprov_sim::peak_rss_bytes().unwrap_or(0) as f64 / (1u64 << 20) as f64;
    put("peak_rss_mib", rss, 1);

    let layers = (!traced.is_empty()).then(|| {
        let mut out = Layers::new();
        for d in &PER_LAYER {
            let values: Vec<f64> = traced
                .iter()
                .filter_map(|r| r.rep.layers.as_ref()?.get(d.name).map(|v| v.value))
                .collect();
            if let Some(first) = traced[0].rep.layers.as_ref().and_then(|l| l.get(d.name)) {
                out.insert(
                    d.name,
                    Value {
                        value: to_reference(d, median(&values), speed),
                        samples: first.samples,
                    },
                );
            }
        }
        let traced_ops: Vec<f64> = traced.iter().map(|r| r.rep.host_ops_s()).collect();
        let with = median(&traced_ops) / speed;
        let scalar = |value| Value { value, samples: 1 };
        out.insert("trace.overhead_ratio", scalar(host_ops / with.max(1e-9)));
        out.insert("trace.host_ops_s", scalar(with));
        out.insert("untraced.host_ops_s", scalar(host_ops));
        out.insert(
            "host.speed",
            Value {
                value: speed,
                samples: kernel.len(),
            },
        );
        out
    });

    for (name, v) in e2e.iter().chain(layers.iter().flatten()) {
        if !v.value.is_finite() {
            violations.push(format!("{name} is not a finite number"));
        }
    }
    Report {
        request,
        reps,
        speed,
        model,
        end_to_end: e2e,
        layers,
        violations,
        stamp,
    }
}
