//! Sensor-to-archive benchmark for dbgc-rs.
//!
//! ```text
//! cargo run --release --manifest-path s2a-bench/Cargo.toml -- \
//!     --workload <codec_drive|sensor_live|archive_ingest> --seed <n> \
//!     --seconds <s> --trace <0|1> [--profile narrow|wide]
//! ```
//!
//! Drives the real stack from outside the program — lidar-sim frames,
//! `Dbgc::compress`, `ResilientClient` over loopback TCP into a
//! `TcpFleetServer`, `FleetHandle::drain` into `FrameStore::ingest`, then
//! `FrameStore::query` — and charges each operation in process CPU time.
//! Context lines come first; the last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` (the end-to-end
//! set with `--trace 0`, the per-layer set with `--trace 1`). See
//! README.md for the workloads, metrics and reference figures.

mod check;
mod codec;
mod host;
mod queries;
mod report;
mod stream;
mod trace;

use std::path::PathBuf;

use dbgc::{DbgcConfig, EntropyProfile};
use dbgc_geom::PointCloud;
use dbgc_lidar_sim::presets::{frame, ScenePreset};

use host::{process_cpu_s, Clock, StealMeter};
use report::{median, quantile, Metrics, Ops, END_TO_END};
use trace::Tracer;

/// Error bound of every workload: q = 2 cm.
pub const Q: f64 = 0.02;

pub const WORKLOADS: [&str; 3] = ["codec_drive", "sensor_live", "archive_ingest"];

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// State of one benchmark run.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub clock: Clock,
    pub tracer: Tracer,
    pub metrics: Metrics,
    pub ops: Ops,
    errors: Vec<String>,
    notes: Vec<String>,
    sim_ms: Vec<f64>,
}

impl Run {
    /// Record a failed check; the run reports `correct: false`.
    pub fn fail(&mut self, msg: String) {
        eprintln!("CHECK FAILED: {msg}");
        self.errors.push(msg);
    }

    /// A context line printed beside the metrics.
    pub fn note(&mut self, msg: String) {
        self.notes.push(msg);
    }

    /// Run set-up `SETUP_REPS` times, charging each in process CPU seconds
    /// (`setup_s` is the median), and keep the last result. Earlier results
    /// go to `teardown`, outside the charge.
    pub fn setup<T>(
        &mut self,
        mut make: impl FnMut(&mut Run) -> T,
        mut teardown: impl FnMut(T),
    ) -> T {
        let mut cpu_s = Vec::new();
        let mut kept = None;
        for _ in 0..SETUP_REPS {
            if let Some(old) = kept.take() {
                teardown(old);
            }
            let w0 = self.clock.ns();
            let c0 = process_cpu_s();
            kept = Some(make(self));
            cpu_s.push(process_cpu_s() - c0);
            self.tracer.span("setup", None, w0, self.clock.ns(), None);
        }
        self.metrics.set("setup_s", median(&cpu_s));
        self.metrics.set("sim.frame_ms", median(&self.sim_ms));
        kept.expect("at least one set-up")
    }

    /// Frame latency: a context line on every run, tails in the traced
    /// output. It is no end-to-end metric: on a shared 2-vCPU host its
    /// run-to-run spread exceeds any bound a regression gate could use.
    pub fn latency_tails(&mut self, latency_ms: &[f64]) {
        self.note(format!(
            "frame latency: median {:.3} ms, p90 {:.3} ms, p99 {:.3} ms over {} frames",
            quantile(latency_ms, 0.5),
            quantile(latency_ms, 0.9),
            quantile(latency_ms, 0.99),
            latency_ms.len()
        ));
        self.metrics.set("latency.p50_ms", quantile(latency_ms, 0.5));
        self.metrics.set("latency.p90_ms", quantile(latency_ms, 0.9));
        self.metrics.set("latency.p99_ms", quantile(latency_ms, 0.99));
        self.metrics.set("latency.samples", latency_ms.len() as f64);
    }
}

/// Generate one simulator frame, charging its CPU to `sim.frame_ms`.
pub fn gen_frame(run: &mut Run, preset: ScenePreset, seed: u64, idx: u32) -> PointCloud {
    let w0 = run.clock.ns();
    let c0 = process_cpu_s();
    let cloud = frame(preset, seed, idx);
    run.sim_ms.push((process_cpu_s() - c0) * 1e3);
    run.tracer.span("sim.frame", None, w0, run.clock.ns(), None);
    cloud
}

/// Scene layout of the `k`-th of `n` source frames: each run draws its
/// frames from `n` layouts of its own, so one odd layout moves a run's
/// figures by a share of `1/n`, and two seeds share no layout.
pub fn layout(seed: u64, n: usize, k: usize) -> u64 {
    seed.wrapping_mul(n as u64).wrapping_add(k as u64)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    profile: EntropyProfile,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut profile = EntropyProfile::Narrow;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                })
            }
            "--profile" => {
                profile = match value()?.as_str() {
                    "narrow" => EntropyProfile::Narrow,
                    "wide" => EntropyProfile::Wide,
                    v => return Err(format!("--profile takes narrow or wide, not {v}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        profile,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("s2a-bench: {e}");
            eprintln!(
                "usage: s2a-bench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
                 [--profile narrow|wide]",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let steal = StealMeter::start();
    let mut run = Run {
        seed: args.seed,
        seconds: args.seconds,
        clock: Clock::new(),
        tracer: Tracer::new(args.trace),
        metrics: Metrics::default(),
        ops: Ops::default(),
        errors: Vec::new(),
        notes: Vec::new(),
        sim_ms: Vec::new(),
    };
    let config = DbgcConfig::with_error_bound(Q).with_entropy_profile(args.profile);
    match args.workload.as_str() {
        "codec_drive" => codec::run(&mut run, config),
        "sensor_live" => stream::sensor_live(&mut run, config),
        "archive_ingest" => stream::archive_ingest(&mut run, config),
        _ => unreachable!("workload validated by parse_args"),
    }
    run.metrics.set("peak_rss_mib", host::peak_rss_mib());
    run.metrics.set("host.steal_pct", steal.pct());

    println!(
        "context: workload={} seed={} seconds={} profile={:?} nproc={} cpu_model=\"{}\" \
         host_steal_pct={:.2}",
        args.workload,
        args.seed,
        args.seconds,
        args.profile,
        host::nproc(),
        host::cpu_model(),
        run.metrics.get("host.steal_pct")
    );
    for note in &run.notes {
        println!("context: {note}");
    }
    println!("{}", run.ops.line());

    let e2e: Vec<(String, &str)> = END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    let selected = if args.trace {
        let line = run.metrics.json(&e2e, false).unwrap_or_else(|e| e);
        println!("traced end-to-end (tracing on, for the overhead): {line}");
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match run.tracer.write(&path) {
            Ok(()) => println!("spans: {} written to {}", run.tracer.len(), path.display()),
            Err(e) => run.fail(format!("writing spans to {}: {e}", path.display())),
        }
        report::per_layer()
    } else {
        e2e
    };
    // Per-layer metrics of a layer the workload bypasses stay 0; an
    // end-to-end metric must have been measured.
    let metrics = match run.metrics.json(&selected, args.trace) {
        Ok(m) => m,
        Err(e) => {
            run.fail(e);
            "{}".to_string()
        }
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        run.errors.is_empty(),
        run.ops.attempted(),
        run.ops.failed
    );
}
