//! Metric names, units, summary statistics and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`. Every workload reports all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("bits_per_point", "bits"),
    ("compress_cpu_ms", "ms"),
    ("decompress_cpu_ms", "ms"),
    ("cpu_ms_per_frame", "ms"),
    ("query_cpu_ms", "ms"),
];

/// The query mix, by short name (see `queries.rs`).
pub const QUERY_NAMES: [&str; 5] = ["near", "street", "dense", "sparse", "frame"];

/// Per-layer metrics: `(name, unit)`. A layer a workload bypasses reports
/// 0 (no work done there).
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("sim.frame_ms", "ms"),
        ("compress.den_ms", "ms"),
        ("compress.oct_ms", "ms"),
        ("compress.cor_ms", "ms"),
        ("compress.org_ms", "ms"),
        ("compress.spa_ms", "ms"),
        ("compress.out_ms", "ms"),
        ("compress.wall_ms", "ms"),
        ("compress.cpu_ms", "ms"),
        ("decompress.oct_ms", "ms"),
        ("decompress.spa_ms", "ms"),
        ("decompress.cor_ms", "ms"),
        ("decompress.out_ms", "ms"),
        ("bytes.header", "bytes"),
        ("bytes.dense", "bytes"),
        ("bytes.sparse", "bytes"),
        ("bytes.outlier", "bytes"),
        ("bytes.index", "bytes"),
        ("points.dense", "count"),
        ("points.sparse", "count"),
        ("points.outlier", "count"),
        ("polylines", "count"),
        ("client.send_ms", "ms"),
        ("net.ack_wait_ms", "ms"),
        ("net.retransmits", "count"),
        ("net.reconnects", "count"),
        ("tcp.idle_cpu_ms_per_s", "ms/s"),
        ("fleet.drain_ms", "ms"),
        ("fleet.frames_stored", "count"),
        ("fleet.conns_reaped", "count"),
        ("fleet.ack_drops", "count"),
        ("store.ingest_ms", "ms"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for (field, unit) in [
        ("cpu_ms", "ms"),
        ("bytes_touched", "bytes"),
        ("frames_pruned", "count"),
        ("frames_partial", "count"),
        ("frames_fallback", "count"),
        ("points", "count"),
    ] {
        for q in QUERY_NAMES {
            v.push((format!("query.{field}.{q}"), unit));
        }
    }
    for (n, u) in [
        ("gen.late_ms.p50", "ms"),
        ("gen.late_ms.max", "ms"),
        ("host.steal_pct", "%"),
        ("latency.p50_ms", "ms"),
        ("latency.p90_ms", "ms"),
        ("latency.p99_ms", "ms"),
        ("latency.samples", "count"),
    ] {
        v.push((n.to_string(), u));
    }
    v
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `p` in `[0, 1]` (0 for an empty slice).
pub fn quantile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = p * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

pub fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(0.0, f64::max)
}

/// Everything a run measured, by metric name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<String, f64>,
}

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// The result object's `metrics` member for the selected set; a metric
    /// the run never set is an error in the benchmark, not a 0.
    pub fn json(&self, set: &[(String, &str)], allow_missing: bool) -> Result<String, String> {
        let mut parts = Vec::with_capacity(set.len());
        for (name, unit) in set {
            let value = match self.values.get(name) {
                Some(v) => *v,
                None if allow_missing => 0.0,
                None => return Err(format!("metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            parts.push(format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", num(value)));
        }
        Ok(format!("{{{}}}", parts.join(", ")))
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
pub fn num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Operation tallies behind `attempted` / `failed`.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ops {
    pub compresses: u64,
    pub decompresses: u64,
    pub sent: u64,
    pub acked: u64,
    pub archived: u64,
    pub queries: u64,
    pub failed: u64,
}

impl Ops {
    pub fn attempted(&self) -> u64 {
        self.compresses + self.decompresses + self.sent + self.acked + self.archived + self.queries
    }

    pub fn line(&self) -> String {
        format!(
            "ops: compresses={} decompresses={} frames_sent={} frames_acked={} \
             frames_archived={} queries={} attempted={} failed={}",
            self.compresses,
            self.decompresses,
            self.sent,
            self.acked,
            self.archived,
            self.queries,
            self.attempted(),
            self.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    /// The manifest at the repository root lists exactly the metrics this
    /// program prints, so the two cannot drift apart.
    #[test]
    fn manifest_matches_metric_tables() {
        let manifest =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let names: Vec<&str> =
            manifest.split("\"name\": \"").skip(1).filter_map(|s| s.split('"').next()).collect();
        let mut want: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        want.extend(per_layer().into_iter().map(|(n, _)| n));
        for n in &want {
            assert!(names.contains(&n.as_str()), "{n} missing from BENCHMARK.json");
        }
        // Workload names are the other `name` entries.
        let workloads = names.len() - want.len();
        assert_eq!(workloads, crate::WORKLOADS.len(), "unexpected names in BENCHMARK.json");
        for w in &crate::WORKLOADS {
            assert!(names.contains(w), "workload {w} missing from BENCHMARK.json");
        }
    }

    #[test]
    fn metrics_json_rejects_unmeasured() {
        let mut m = Metrics::default();
        m.set("a", 1.5);
        let set = vec![("a".to_string(), "ms"), ("b".to_string(), "ms")];
        assert!(m.json(&set, false).is_err());
        assert_eq!(
            m.json(&set[..1], false).unwrap(),
            "{\"a\": {\"value\": 1.5, \"unit\": \"ms\"}}"
        );
    }
}
