//! `hyperprov-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, per metric, its value, unit, clock and
//! sample count, then the provenance stamp, then as the last line one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}` with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Exits 1 when a check or the audit fails, 2 on bad
//! arguments.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;

use hyperprov_benchmark::layers::Value;
use hyperprov_benchmark::stamp::quote;
use hyperprov_benchmark::workload::{Size, Workload};
use hyperprov_benchmark::{run, Clock, Def, Report, Request, END_TO_END, PER_LAYER};

const USAGE: &str = "usage: hyperprov-benchmark --workload <edge_ingest|lineage_mix|population> \
--seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Request, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                seconds =
                    Some(Duration::try_from_secs_f64(s).map_err(|e| format!("--seconds: {e}"))?);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Request {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size: Size::full(workload),
    })
}

fn line(def: &Def, v: &Value) -> String {
    let clock = match def.clock {
        Clock::Model => "model",
        Clock::Host => "host",
    };
    format!(
        "{:<34} {:>16} {:<6} clock={clock:<5} n={}",
        def.name,
        format!("{:.4}", v.value),
        def.unit,
        v.samples
    )
}

fn metrics_json(defs: &[Def], values: &std::collections::BTreeMap<&'static str, Value>) -> String {
    let mut s = String::from("{");
    for (i, d) in defs.iter().enumerate() {
        // A non-finite value is already a violation; keep the line valid JSON.
        let v = values.get(d.name).map_or(0.0, |v| v.value);
        let v = if v.is_finite() { v } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}{}: {{\"value\": {v:?}, \"unit\": {}}}",
            quote(d.name),
            quote(d.unit)
        );
    }
    s.push('}');
    s
}

fn print(report: &Report) {
    let req = &report.request;
    let traced = report.reps.iter().filter(|r| r.traced).count();
    println!(
        "hyperprov benchmark: workload {} seed {}, {} repetitions ({traced} traced)",
        req.workload.name(),
        req.seed,
        report.reps.len()
    );
    println!("stamp {}", report.stamp.to_json());
    println!(
        "end-to-end (model clock: pooled over the first run of each of {} shards; \
         host clock: median of untraced repetitions, on the reference-host scale)",
        req.size.shards
    );
    for d in &END_TO_END {
        if let Some(v) = report.end_to_end.get(d.name) {
            println!("  {}", line(d, v));
        }
    }
    let m = &report.model;
    println!(
        "  {:<34} {:>16} {:<6} clock=model n={} (errors {} + hung {})",
        "fail_ratio",
        format!(
            "{:.4}",
            (m.errors + m.hung) as f64 / m.submitted.max(1) as f64
        ),
        "ratio",
        m.submitted,
        m.errors,
        m.hung
    );
    if let Some(layers) = &report.layers {
        println!("per-layer (median of traced repetitions)");
        for d in &PER_LAYER {
            if let Some(v) = layers.get(d.name) {
                println!("  {}", line(d, v));
            }
        }
    }
    eprintln!("host speed against the reference host: {:.3}", report.speed);
    for (i, r) in report.reps.iter().enumerate() {
        eprintln!(
            "repetition {i}: traced={} wall: setup_s={:.3} measured_s={:.3} host_ops_s={:.1}",
            r.traced,
            r.rep.host.setup_s(),
            r.rep.host.measured_s,
            r.rep.host_ops_s()
        );
        for e in &r.rep.errors {
            eprintln!("  error: {e}");
        }
    }
    for v in report.violations.iter().take(20) {
        eprintln!("VIOLATION: {v}");
    }
    println!(
        "result: {}",
        if report.correct() {
            "correct"
        } else {
            "INCORRECT"
        }
    );
    let metrics = match &report.layers {
        Some(layers) if req.trace => metrics_json(&PER_LAYER, layers),
        _ => metrics_json(&END_TO_END, &report.end_to_end),
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        report.correct(),
        report.attempted(),
        report.failed()
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let request = match parse(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run(request);
    print(&report);
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
