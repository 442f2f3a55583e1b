//! One repetition of a workload: set-up (build, leader wait, preload,
//! warm-up), the measured open loop, the outcome checks and the audit.
//!
//! Preload waves go in with `Simulation::inject_message`; the open loop
//! is a generator actor whose timers fire each operation at its due
//! time, so the generator is never late in virtual time, whatever slices
//! the runner advances the simulation by. Every completion is checked
//! against that, and latency runs from the due time to the completion.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::time::Instant;

use hyperprov::{
    ClientCommand, ClientCompletion, HyperProvNetwork, NodeMsg, OpId, OpOutput, OrdererMode,
};
use hyperprov_device::PowerMeter;
use hyperprov_fabric::RaftOrdererActor;
use hyperprov_ledger::Digest;
use hyperprov_sim::{Actor, ActorId, Context, Event, SimDuration, SimTime, Tracer, TracerConfig};

use crate::audit::audit;
use crate::layers::{self, peer0_heights, LayerInputs, Layers, ProfileMark};
use crate::stats::Samples;
use crate::workload::{Op, OpClass, Plan};

/// Virtual-time slice the drain and settle loops advance by.
const SLICE: SimDuration = SimDuration::from_millis(50);
/// How long after the last due time the drain waits for completions;
/// an operation still without one is hung.
const DRAIN_CAP: SimDuration = SimDuration::from_secs(120);
/// How long the leader wait and the replica settle may take.
const SETTLE_CAP: SimDuration = SimDuration::from_secs(30);

/// Model-clock results of one repetition (or of several, pooled).
/// Deterministic for a seed.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelMetrics {
    /// Write latencies (due → commit event), ms.
    pub write: Samples,
    /// Read latencies (due → result), ms.
    pub read: Samples,
    /// Measured operations submitted.
    pub submitted: u64,
    /// Measured operations that succeeded.
    pub ok: u64,
    /// Measured operations that returned an error.
    pub errors: u64,
    /// Measured operations without a completion after the drain.
    pub hung: u64,
    /// The measured window (first → last measured due time), s.
    pub window_s: f64,
    /// Successful completions of any operation inside the window.
    pub in_window: u64,
    /// Modelled energy of all peers over the window, J.
    pub peer_joules: f64,
    /// Busy CPU time of all peers over the window, s (lane-averaged).
    pub peer_busy_s: f64,
    /// Number of peers.
    pub peers: usize,
}

impl ModelMetrics {
    /// Successful completions per virtual second over the window.
    pub fn goodput_ops_s(&self) -> f64 {
        self.in_window as f64 / self.window_s.max(1e-9)
    }

    /// Modelled peer energy per completion in the window, mJ.
    pub fn energy_mj_per_op(&self) -> f64 {
        self.peer_joules * 1e3 / self.in_window.max(1) as f64
    }

    /// Mean peer CPU utilisation over the window.
    pub fn peer_util(&self) -> f64 {
        self.peer_busy_s / (self.window_s * self.peers as f64).max(1e-9)
    }

    /// Mean modelled power per peer over the window, W.
    pub fn peer_watts(&self) -> f64 {
        self.peer_joules / (self.window_s * self.peers as f64).max(1e-9)
    }

    /// Pools repetitions of different seeds into one sample set.
    pub fn pool(parts: &[&ModelMetrics]) -> ModelMetrics {
        let cat = |f: fn(&ModelMetrics) -> &Samples| {
            Samples::new(
                parts
                    .iter()
                    .flat_map(|m| f(m).values().iter().copied())
                    .collect(),
            )
        };
        let sum = |f: fn(&ModelMetrics) -> u64| parts.iter().map(|m| f(m)).sum();
        let fsum = |f: fn(&ModelMetrics) -> f64| parts.iter().map(|m| f(m)).sum();
        ModelMetrics {
            write: cat(|m| &m.write),
            read: cat(|m| &m.read),
            submitted: sum(|m| m.submitted),
            ok: sum(|m| m.ok),
            errors: sum(|m| m.errors),
            hung: sum(|m| m.hung),
            window_s: fsum(|m| m.window_s),
            in_window: sum(|m| m.in_window),
            peer_joules: fsum(|m| m.peer_joules),
            peer_busy_s: fsum(|m| m.peer_busy_s),
            peers: parts.first().map_or(0, |m| m.peers),
        }
    }
}

/// Host-clock times of one repetition.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HostTimes {
    /// `HyperProvNetwork::build`.
    pub build_s: f64,
    /// Preload waves and the wait for ordering leaders.
    pub preload_s: f64,
    /// The warm-up part of the open loop.
    pub warmup_s: f64,
    /// The measured part of the open loop, cool-down and drain included.
    pub measured_s: f64,
}

impl HostTimes {
    /// Set-up time: build + preload + warm-up.
    pub fn setup_s(&self) -> f64 {
        self.build_s + self.preload_s + self.warmup_s
    }
}

/// The outcome of one repetition.
#[derive(Debug)]
pub struct Rep {
    /// Model-clock metrics.
    pub model: ModelMetrics,
    /// Host-clock times.
    pub host: HostTimes,
    /// Operations of any phase that completed successfully during the
    /// timed (measured) part of the run.
    pub timed_ok: u64,
    /// Correctness violations (empty = correct).
    pub violations: Vec<String>,
    /// The first few operation errors, for diagnosis.
    pub errors: Vec<String>,
    /// Per-layer metrics (traced repetitions only).
    pub layers: Option<Layers>,
}

impl Rep {
    /// Successful simulated operations per host wall-second, measured
    /// phase only (before any reference scaling).
    pub fn host_ops_s(&self) -> f64 {
        self.timed_ok as f64 / self.host.measured_s.max(1e-9)
    }
}

/// What an operation's result must show, derived before the command is
/// handed to the program.
#[derive(Debug, Clone)]
enum Expect {
    Write(String),
    Get(String),
    GetData(String),
    History(String),
    Ancestry(String, u32),
    Lineage(String, u32),
}

impl Expect {
    fn of(cmd: &ClientCommand) -> Expect {
        match cmd {
            ClientCommand::StoreData { key, .. } | ClientCommand::Post { key, .. } => {
                Expect::Write(key.clone())
            }
            ClientCommand::Get { key, .. } => Expect::Get(key.clone()),
            ClientCommand::GetData { key, .. } => Expect::GetData(key.clone()),
            ClientCommand::GetHistory { key, .. } => Expect::History(key.clone()),
            ClientCommand::GetAncestry { key, depth, .. } => Expect::Ancestry(key.clone(), *depth),
            ClientCommand::GetLineage { key, depth, .. } => Expect::Lineage(key.clone(), *depth),
            other => panic!("the workloads submit no {other:?}"),
        }
    }
}

#[derive(Debug)]
struct Tracked {
    expect: Expect,
    class: OpClass,
    due: SimTime,
    measured: bool,
}

/// The open-loop generator: an actor that hands operation `i` to its
/// client when timer `i` fires, so every operation starts exactly at its
/// due time whatever slices the runner advances the simulation by.
struct Generator {
    ops: Vec<Option<(ActorId, ClientCommand)>>,
}

impl Actor<NodeMsg> for Generator {
    fn on_event(&mut self, ctx: &mut Context<'_, NodeMsg>, event: Event<NodeMsg>) {
        if let Event::Timer { token } = event {
            let (client, cmd) = self.ops[token as usize]
                .take()
                .expect("each operation fires once");
            ctx.send_local(client, NodeMsg::Client(cmd));
        }
    }
}

/// Submits operations, advances the simulation and keeps what the checks
/// need.
struct Runner {
    net: HyperProvNetwork,
    tracked: HashMap<OpId, Tracked>,
    done: Vec<ClientCompletion>,
}

impl Runner {
    fn track(&mut self, op: &Op, due: SimTime, measured: bool) {
        self.tracked.insert(
            op.cmd.op(),
            Tracked {
                expect: Expect::of(&op.cmd),
                class: op.class,
                due,
                measured,
            },
        );
    }

    /// Hands `op` to its client now.
    fn inject(&mut self, op: Op) {
        self.track(&op, self.net.sim.now(), false);
        let client = self.net.clients[op.client];
        self.net.sim.inject_message(client, NodeMsg::Client(op.cmd));
    }

    fn collect(&mut self) {
        for queue in &self.net.completions {
            self.done.extend(queue.borrow_mut().drain(..));
        }
    }

    /// Advances the simulation in slices until `done` holds or `cap`
    /// passes; true when `done` held.
    fn advance_until(&mut self, cap: SimTime, mut done: impl FnMut(&mut Self) -> bool) -> bool {
        loop {
            if done(self) {
                return true;
            }
            let now = self.net.sim.now();
            if now >= cap {
                return false;
            }
            self.net.sim.run_until(now + SLICE);
        }
    }

    /// Runs until every submitted operation has completed, or `cap`.
    fn run_until_complete(&mut self, cap: SimTime) -> bool {
        self.advance_until(cap, |d| {
            d.collect();
            d.done.len() >= d.tracked.len()
        })
    }

    /// Runs until every channel's ordering service has a Raft leader.
    fn wait_for_leaders(&mut self) -> bool {
        let cap = self.net.sim.now() + SETTLE_CAP;
        self.advance_until(cap, |d| {
            let sim = &d.net.sim;
            d.net.channel_orderers.iter().all(|members| {
                members.iter().any(|&id| {
                    sim.actor_ref(id)
                        .and_then(|a| a.as_any())
                        .and_then(|a| a.downcast_ref::<RaftOrdererActor<NodeMsg>>())
                        .is_some_and(RaftOrdererActor::is_leader)
                })
            })
        })
    }

    /// Runs until all replicas of each channel reach the same height.
    fn settle(&mut self) -> bool {
        let cap = self.net.sim.now() + SETTLE_CAP;
        self.advance_until(cap, |d| {
            d.net.channel_ledgers.iter().all(|hosts| {
                let h = hosts[0].1.borrow().height();
                hosts.iter().all(|(_, l)| l.borrow().height() == h)
            })
        })
    }
}

/// Runs one repetition of `plan`, with the tracer and profiler on when
/// `traced`.
pub fn run(mut plan: Plan, traced: bool) -> Rep {
    let preload = std::mem::take(&mut plan.preload);
    let open_loop = std::mem::take(&mut plan.open_loop);
    let submitted_total = preload.iter().map(Vec::len).sum::<usize>() + open_loop.len();
    let mut violations = Vec::new();
    let mut host = HostTimes::default();

    let clock = Instant::now();
    let mut net = HyperProvNetwork::build(&plan.config);
    if traced {
        net.sim.set_tracer(Tracer::new(TracerConfig {
            span_capacity: usize::MAX,
            event_capacity: 0,
            sample_every: 1,
        }));
        net.sim.enable_profiler();
    } else {
        net.sim.set_tracer(Tracer::disabled());
    }
    host.build_s = clock.elapsed().as_secs_f64();
    let mut runner = Runner {
        net,
        tracked: HashMap::with_capacity(submitted_total),
        done: Vec::with_capacity(submitted_total),
    };

    let clock = Instant::now();
    // Before the first Raft election, submissions are dropped without an
    // error; nothing is submitted until every channel has a leader.
    if matches!(plan.config.orderer_mode, OrdererMode::Raft { .. }) && !runner.wait_for_leaders() {
        violations.push("no Raft leader was elected".to_owned());
    }
    for wave in preload {
        let now = runner.net.sim.now();
        for op in wave {
            runner.inject(op);
        }
        if !runner.run_until_complete(now + DRAIN_CAP) {
            violations.push("a preload wave did not complete".to_owned());
        }
    }
    host.preload_s = clock.elapsed().as_secs_f64();

    // The open loop: warm-up (set-up), the measured operations, then a
    // cool-down tail that keeps the load on while the last measured
    // operations finish. The generator actor fires each operation at its
    // due time from inside the simulation.
    let t0 = runner.net.sim.now();
    let measured = plan.warmup..open_loop.len() - plan.cooldown;
    let last_due = t0 + open_loop.last().map_or(SimDuration::ZERO, |op| op.due);
    let window_start = t0 + open_loop[measured.start].due;
    let window_end = t0 + open_loop[measured.end - 1].due;
    let mut ops = Vec::with_capacity(open_loop.len());
    let mut delays = Vec::with_capacity(open_loop.len());
    for (i, op) in open_loop.into_iter().enumerate() {
        runner.track(&op, t0 + op.due, measured.contains(&i));
        delays.push(op.due);
        ops.push(Some((runner.net.clients[op.client], op.cmd)));
    }
    let generator = runner.net.sim.add_actor(Box::new(Generator { ops }));
    runner.net.sim.set_actor_label(generator, "generator");
    for (i, delay) in delays.into_iter().enumerate() {
        runner.net.sim.start_timer(generator, delay, i as u64);
    }
    let clock = Instant::now();
    // Stop just short of the first measured due time, so its firing
    // falls in the measured phase.
    let before = SimTime::from_nanos(window_start.as_nanos().saturating_sub(1));
    runner.run_until_complete(before);
    host.warmup_s = clock.elapsed().as_secs_f64();
    let done_before = runner.done.len();
    let mark = ProfileMark::take(&runner.net.sim, peer0_heights(&runner.net));
    let clock = Instant::now();
    runner.run_until_complete(last_due + DRAIN_CAP);
    host.measured_s = clock.elapsed().as_secs_f64();
    let end_mark = ProfileMark::take(&runner.net.sim, peer0_heights(&runner.net));
    if !runner.settle() {
        violations.push("replicas did not reach one height".to_owned());
    }

    // Check every outcome against the plan's item model.
    let mut write = Vec::new();
    let mut read = Vec::new();
    let mut errors = Vec::new();
    let (mut ok, mut err_count, mut unmeasured_failed) = (0u64, 0u64, 0u64);
    let (mut in_window, mut timed_ok) = (0u64, 0u64);
    let mut written: HashSet<String> = HashSet::new();
    let mut seen: HashSet<OpId> = HashSet::with_capacity(runner.done.len());
    for (i, c) in runner.done.iter().enumerate() {
        let Some(t) = runner.tracked.get(&c.op) else {
            violations.push(format!("completion for unknown {:?}", c.op));
            continue;
        };
        if !seen.insert(c.op) {
            violations.push(format!("{:?} completed twice", c.op));
            continue;
        }
        if c.started != t.due {
            violations.push(format!("{:?} started off its due time", c.op));
        }
        let success = match &c.outcome {
            Ok(out) => match check(&plan, &t.expect, out) {
                Ok(()) => true,
                Err(why) => {
                    violations.push(format!("{:?}: {why}", c.op));
                    false
                }
            },
            Err(e) => {
                if errors.len() < 5 {
                    errors.push(format!("{:?} {:?}: {e}", c.op, t.expect));
                }
                false
            }
        };
        if success {
            if let Expect::Write(key) = &t.expect {
                written.insert(key.clone());
            }
            in_window += u64::from((window_start..=window_end).contains(&c.finished));
            timed_ok += u64::from(i >= done_before);
        }
        match (t.measured, success) {
            (true, true) => {
                ok += 1;
                let ms = (c.finished - t.due).as_nanos() as f64 / 1e6;
                match t.class {
                    OpClass::Write => write.push(ms),
                    OpClass::Read => read.push(ms),
                }
            }
            (true, false) => err_count += 1,
            (false, true) => {}
            (false, false) => unmeasured_failed += 1,
        }
    }
    let submitted = measured.len() as u64;
    let hung = runner
        .tracked
        .iter()
        .filter(|(id, t)| t.measured && !seen.contains(id))
        .count() as u64;
    let unmeasured_hung = (runner.tracked.len() - seen.len()) as u64 - hung;
    if unmeasured_failed + unmeasured_hung > 0 {
        violations.push(format!(
            "{} preload, warm-up or cool-down operations failed or hung",
            unmeasured_failed + unmeasured_hung
        ));
    }
    if submitted != ok + err_count + hung {
        violations.push(format!(
            "submitted {submitted} != ok {ok} + err {err_count} + hung {hung}"
        ));
    }

    // Goodput and energy over the measured window of the schedule.
    let net = &runner.net;
    let window_s = (window_end - window_start).as_secs_f64().max(1e-9);
    let (mut peer_joules, mut peer_busy_s) = (0.0, 0.0);
    for (i, &peer) in net.peers.iter().enumerate() {
        let cpu = net.sim.cpu(peer);
        let meter = PowerMeter::new(net.devices[i].energy, SimDuration::from_secs(1));
        peer_joules += meter.average_watts(cpu, window_start, window_end, true) * window_s;
        peer_busy_s += cpu.utilization(window_start, window_end) * window_s;
    }
    let model = ModelMetrics {
        write: Samples::new(write),
        read: Samples::new(read),
        submitted,
        ok,
        errors: err_count,
        hung,
        window_s,
        in_window,
        peer_joules,
        peer_busy_s,
        peers: net.peers.len(),
    };

    violations.extend(audit(net, &plan, &written));
    let layers = traced.then(|| {
        let (layers, broken) = layers::collect(&LayerInputs {
            net,
            plan: &plan,
            model: &model,
            host,
            window_start,
            timed_ops: (measured.len() + plan.cooldown) as u64,
            start: mark,
            end: end_mark,
        });
        violations.extend(broken);
        layers
    });
    Rep {
        model,
        host,
        timed_ok,
        violations,
        errors,
        layers,
    }
}

/// The ancestor keys of `key` up to `depth` hops in the plan's model
/// (the key included), and the keys first reached at exactly `depth`.
fn ancestors(plan: &Plan, key: &str, depth: u32) -> (BTreeSet<String>, Vec<String>) {
    let mut seen = BTreeSet::from([key.to_owned()]);
    let mut frontier = vec![key.to_owned()];
    for _ in 0..depth {
        let mut next = Vec::new();
        for k in &frontier {
            for p in parents(plan, k) {
                if seen.insert(p.clone()) {
                    next.push(p.clone());
                }
            }
        }
        frontier = next;
    }
    (seen, frontier)
}

fn parents<'a>(plan: &'a Plan, key: &str) -> &'a [String] {
    plan.items.get(key).map_or(&[], |i| &i.parents)
}

/// Checks a successful result against the plan.
fn check(plan: &Plan, expect: &Expect, out: &OpOutput) -> Result<(), String> {
    let item = |key: &str| {
        plan.items
            .get(key)
            .ok_or_else(|| format!("{key} is not in the plan"))
    };
    let same = |key: &str, checksum: Digest| -> Result<(), String> {
        if item(key)?.checksum == checksum {
            Ok(())
        } else {
            Err(format!("{key}: wrong checksum"))
        }
    };
    match (expect, out) {
        (
            Expect::Write(key),
            OpOutput::Committed {
                record: Some(r), ..
            },
        )
        | (Expect::Get(key), OpOutput::Record(r)) => {
            if &r.key != key || r.parents != item(key)?.parents {
                return Err(format!("{key}: wrong record"));
            }
            same(key, r.checksum)
        }
        (Expect::GetData(key), OpOutput::Data { record, data }) => {
            if data.len() as u64 != item(key)?.size || &record.key != key {
                return Err(format!("{key}: wrong payload"));
            }
            same(key, Digest::of(data))
        }
        (Expect::History(key), OpOutput::History(versions)) => match &versions[..] {
            [only] => same(
                key,
                only.record.as_ref().map_or(Digest::ZERO, |r| r.checksum),
            ),
            _ => Err(format!("{key}: {} versions, expected 1", versions.len())),
        },
        (Expect::Ancestry(key, depth), OpOutput::Graph(slice)) => {
            // The index walk reports a cut when a node at the depth
            // bound still has parents.
            let (want, edge) = ancestors(plan, key, *depth);
            let cut = edge.iter().any(|k| !parents(plan, k).is_empty());
            let got: BTreeSet<String> = slice.entries.iter().map(|(_, k)| k.clone()).collect();
            if got != want || slice.truncated != cut || !slice.boundary.is_empty() {
                return Err(format!("{key}: wrong ancestry"));
            }
            Ok(())
        }
        (Expect::Lineage(key, depth), OpOutput::Lineage { entries, truncated }) => {
            // The hop-by-hop walk reports a cut when a record at the
            // depth bound names a parent it did not return.
            let (want, edge) = ancestors(plan, key, *depth);
            let cut = edge
                .iter()
                .any(|k| parents(plan, k).iter().any(|p| !want.contains(p)));
            let got: BTreeSet<String> = entries.iter().map(|e| e.record.key.clone()).collect();
            if got != want || *truncated != cut {
                return Err(format!("{key}: wrong lineage"));
            }
            for e in entries {
                same(&e.record.key, e.record.checksum)?;
            }
            Ok(())
        }
        (expect, out) => Err(format!("{expect:?} answered with {out:?}")),
    }
}
