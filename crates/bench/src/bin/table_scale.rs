//! T-SCALE: 10,000 open-loop clients over 1,000,000 unique keys —
//! per-submitter commit events and a lazily generated schedule; reports
//! modelled goodput plus host events/sec and peak RSS.

fn main() {
    hyperprov_bench::runner::bench_main(&[hyperprov_bench::experiments::scale_artefacts]);
}
