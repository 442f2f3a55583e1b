//! The end-of-run audit, checked from outside the program through its
//! public API.

use std::collections::HashSet;

use hyperprov::{current_records, ChannelRouter, HashRouter, HyperProvNetwork};

use crate::workload::Plan;

/// Audits a drained network against the keys whose write completed
/// successfully; returns one line per violation (empty = clean).
///
/// * Every peer of each channel agrees on height, tip hash, state hash
///   and provenance-graph digest, and every chain verifies.
/// * [`hyperprov::audit`] finds nothing against the off-chain store.
/// * Every successfully written item reads back from its shard with the
///   checksum and parents the plan gave it, and nothing else is there.
/// * With tracing on, no span is open and no span end went unmatched.
pub fn audit(net: &HyperProvNetwork, plan: &Plan, written: &HashSet<String>) -> Vec<String> {
    let mut out = Vec::new();
    for (ci, hosts) in net.channel_ledgers.iter().enumerate() {
        let fingerprint = |i: usize| {
            let c = hosts[i].1.borrow();
            (
                c.height(),
                c.store().tip_hash(),
                c.state().state_hash(),
                c.graph().digest(),
            )
        };
        let first = fingerprint(0);
        for i in 1..hosts.len() {
            let other = fingerprint(i);
            if other != first {
                out.push(format!(
                    "channel {ci}: peer {} disagrees with peer {} (height {} vs {})",
                    hosts[i].0, hosts[0].0, other.0, first.0
                ));
            }
        }
        for (peer, ledger) in hosts {
            if let Err(err) = ledger.borrow().store().verify_chain() {
                out.push(format!("channel {ci} peer {peer}: chain broken: {err}"));
            }
        }
        let report = hyperprov::audit(&hosts[0].1.borrow(), &*net.store);
        for finding in report.findings {
            out.push(format!("channel {ci}: audit: {finding}"));
        }
    }

    let shards = net.channel_ledgers.len();
    let mut found = 0usize;
    for (ci, hosts) in net.channel_ledgers.iter().enumerate() {
        for (key, record) in current_records(&hosts[0].1.borrow()) {
            found += 1;
            let Ok(record) = record else {
                out.push(format!("{key}: record does not decode"));
                continue;
            };
            match plan.items.get(&key) {
                Some(item) if written.contains(&key) => {
                    if record.checksum != item.checksum || record.parents != item.parents {
                        out.push(format!("{key}: read back with another checksum or parents"));
                    }
                    if HashRouter.route(&key, shards) != ci {
                        out.push(format!("{key}: committed on the wrong shard {ci}"));
                    }
                }
                _ => out.push(format!(
                    "{key}: on the ledger but never written successfully"
                )),
            }
        }
    }
    if found != written.len() {
        out.push(format!(
            "{} items written but {found} on the ledger",
            written.len()
        ));
    }

    let tracer = net.sim.tracer();
    if tracer.is_enabled() {
        if tracer.open_spans() != 0 {
            out.push(format!(
                "{} spans left open: {:?}",
                tracer.open_spans(),
                tracer.unclosed_by_stage()
            ));
        }
        if tracer.unmatched_ends() != 0 {
            out.push(format!("{} unmatched span ends", tracer.unmatched_ends()));
        }
        if tracer.spans_evicted() != 0 {
            out.push(format!("{} spans evicted", tracer.spans_evicted()));
        }
    }
    out
}
