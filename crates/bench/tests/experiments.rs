//! Guard tests for the experiment harness: quick-mode runs must produce
//! tables with the shapes the paper reports.

use hyperprov::{HyperProvNetwork, NetworkConfig};
use hyperprov_bench::experiments::{batch_sweep, contention_sweep, query_latency};
use hyperprov_bench::runner::run_open_loop;
use hyperprov_bench::workload::{payload, poisson_arrivals, store_cmd};
use hyperprov_sim::{DetRng, SimDuration};

#[test]
fn open_loop_injects_every_arrival_on_time() {
    // The Fig. 3 shape: one RPi client under sparse Poisson arrivals, so
    // batch timeouts and other far events lie between most arrivals.
    let mut net = HyperProvNetwork::build(&NetworkConfig::rpi(1).with_seed(42));
    let mut rng = DetRng::new(42).fork("fig3");
    let arrivals = poisson_arrivals(
        &mut rng.fork("arrivals"),
        2.0,
        SimDuration::from_secs(30),
        1,
    );
    let schedule: Vec<_> = arrivals
        .iter()
        .enumerate()
        .map(|(i, &(at, client))| {
            (
                at,
                client,
                store_cmd(format!("item-{i}"), payload(&mut rng, 512)),
            )
        })
        .collect();
    let result = run_open_loop(&mut net, schedule, SimDuration::from_secs(5));
    assert_eq!(result.issued, arrivals.len() as u64);
    assert_eq!(result.completions.len(), arrivals.len());
    for (_, completion) in &result.completions {
        let scheduled = arrivals[completion.op.0 as usize - 1].0;
        assert_eq!(
            completion.started, scheduled,
            "op {} entered its client late",
            completion.op.0
        );
    }
}

#[test]
fn contention_conflicts_grow_with_hot_fraction() {
    let table = contention_sweep(true);
    assert_eq!(table.len(), 2); // fractions 0.0 and 0.8 in quick mode
    let cold_conflicts = table.cell_f64(0, 3).unwrap();
    let hot_conflicts = table.cell_f64(1, 3).unwrap();
    assert_eq!(cold_conflicts, 0.0, "unique keys cannot conflict");
    assert!(
        hot_conflicts > 0.0,
        "hot-key contention must produce MVCC conflicts: {table}"
    );
    // Work was actually committed in both settings.
    assert!(table.cell_f64(0, 2).unwrap() > 0.0);
    assert!(table.cell_f64(1, 2).unwrap() > 0.0);
}

#[test]
fn batch_size_one_has_lowest_latency() {
    let table = batch_sweep(true);
    assert_eq!(table.len(), 2); // batch sizes 1 and 10 in quick mode
    let p50_batch1 = table.cell_f64(0, 2).unwrap();
    let p50_batch10 = table.cell_f64(1, 2).unwrap();
    assert!(
        p50_batch1 < p50_batch10,
        "immediate cuts must beat timeout-bound batches: {table}"
    );
    assert!(table.cell_f64(0, 1).unwrap() > 0.0);
}

#[test]
fn query_latency_table_covers_all_operators() {
    let table = query_latency(true);
    assert_eq!(table.len(), 5);
    for row in 0..table.len() {
        let mean = table.cell_f64(row, 1).unwrap();
        let p95 = table.cell_f64(row, 2).unwrap();
        assert!(mean > 0.0, "row {row} has zero latency: {table}");
        assert!(p95 + 1e-9 >= mean * 0.5, "p95 sane for row {row}");
        assert!(table.cell_f64(row, 3).unwrap() > 0.0);
    }
    // Lineage over the whole chain must cost more than a point get.
    let get_mean = table.cell_f64(0, 1).unwrap();
    let lineage_mean = table.cell_f64(4, 1).unwrap();
    assert!(
        lineage_mean >= get_mean,
        "lineage should not be cheaper than a point get: {table}"
    );
}
