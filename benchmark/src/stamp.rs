//! The provenance stamp printed with every result: what ran, on what
//! code, built how, on which machine.

use std::fmt::Write as _;

use crate::workload::Plan;

/// Where a result came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stamp {
    /// Workload name.
    pub workload: &'static str,
    /// Run seed.
    pub seed: u64,
    /// Shards the run splits into.
    pub shards: usize,
    /// Digest of the first shard's deployment and workload shape.
    pub config_digest: String,
    /// Digest of the first shard's command stream.
    pub stream_digest: String,
    /// Git revision of the working directory, if it is a git checkout.
    pub git_revision: String,
    /// `release` or `debug`.
    pub build_profile: &'static str,
    /// Host CPU model.
    pub cpu_model: String,
    /// Logical CPUs available to the process.
    pub nproc: usize,
}

impl Stamp {
    /// Stamps a run at `seed` whose first shard is `plan`.
    pub fn new(plan: &Plan, seed: u64, shards: usize) -> Stamp {
        Stamp {
            workload: plan.workload.name(),
            seed,
            shards,
            config_digest: plan.config_digest().to_hex(),
            stream_digest: plan.stream_digest().to_hex(),
            git_revision: git_revision().unwrap_or_else(|| "unknown".to_owned()),
            build_profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            cpu_model: cpu_model().unwrap_or_else(|| "unknown".to_owned()),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    /// The stamp as one JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        let fields: [(&str, String); 9] = [
            ("workload", quote(self.workload)),
            ("seed", self.seed.to_string()),
            ("shards", self.shards.to_string()),
            ("config_digest", quote(&self.config_digest)),
            ("stream_digest", quote(&self.stream_digest)),
            ("git_revision", quote(&self.git_revision)),
            ("build_profile", quote(self.build_profile)),
            ("cpu_model", quote(&self.cpu_model)),
            ("nproc", self.nproc.to_string()),
        ];
        for (i, (k, v)) in fields.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(s, "{sep}\"{k}\":{v}");
        }
        s.push('}');
        s
    }
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The revision `.git/HEAD` in the working directory points at; `None`
/// outside a git checkout.
fn git_revision() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(rev.trim().to_owned());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_owned)
}

/// The first `model name` line of `/proc/cpuinfo`.
fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map(|m| m.trim().to_owned())
}
