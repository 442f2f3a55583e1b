//! Self-tests of the benchmark: seeded command streams, model-clock
//! determinism across runs and across tracing, clean audits on tiny
//! runs, and agreement between the metric catalogue and
//! `BENCHMARK.json`.

use std::time::Duration;

use hyperprov_benchmark::drive;
use hyperprov_benchmark::workload::{plan, Size, Workload};
use hyperprov_benchmark::{run, Request, END_TO_END, PER_LAYER};

#[test]
fn same_seed_same_stream_other_seed_other_stream() {
    for w in Workload::ALL {
        let size = Size::smoke(w);
        let a = plan(w, 7, size);
        let b = plan(w, 7, size);
        let c = plan(w, 8, size);
        assert_eq!(a.stream_digest(), b.stream_digest(), "{}", w.name());
        assert_ne!(a.stream_digest(), c.stream_digest(), "{}", w.name());
        assert_eq!(a.config_digest(), b.config_digest(), "{}", w.name());
    }
}

#[test]
fn model_metrics_repeat_across_runs_and_tracing() {
    for w in Workload::ALL {
        let size = Size::smoke(w);
        let first = drive::run(plan(w, 11, size), false);
        let again = drive::run(plan(w, 11, size), false);
        let traced = drive::run(plan(w, 11, size), true);
        for rep in [&first, &again, &traced] {
            assert!(
                rep.violations.is_empty(),
                "{}: {:?}",
                w.name(),
                rep.violations
            );
        }
        assert_eq!(first.model, again.model, "{}", w.name());
        assert_eq!(first.model, traced.model, "{}", w.name());
        assert!(first.layers.is_none() && traced.layers.is_some());
    }
}

#[test]
fn smoke_runs_of_every_workload_pass_the_audit() {
    for w in Workload::ALL {
        let report = run(Request {
            workload: w,
            seed: 3,
            seconds: Duration::ZERO,
            trace: true,
            size: Size::smoke(w),
        });
        assert!(report.correct(), "{}: {:?}", w.name(), report.violations);
        assert_eq!(report.failed(), 0, "{}", w.name());
        assert!(report.attempted() > 0);
        for d in END_TO_END {
            let v = report.end_to_end[d.name];
            assert!(
                v.value.is_finite() && v.value > 0.0,
                "{} {}",
                w.name(),
                d.name
            );
        }
        let layers = report.layers.as_ref().expect("a traced run has layers");
        for d in PER_LAYER {
            assert!(layers.contains_key(d.name), "{} lacks {}", w.name(), d.name);
        }
    }
}

#[test]
fn benchmark_json_lists_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for w in Workload::ALL {
        assert!(json.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name())));
    }
    for d in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            d.name, d.unit, d.better
        );
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let names = json.matches("{\"name\": ").count();
    assert_eq!(
        names,
        Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len()
    );
}
