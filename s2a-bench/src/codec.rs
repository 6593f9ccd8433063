//! `codec_drive`: a closed loop over the codec on one thread, no network,
//! pool or store on the measured path.

use dbgc::{CompressionStats, DbgcConfig, DecompressStats};
use dbgc_geom::{Point3, PointCloud};
use dbgc_lidar_sim::presets::ScenePreset;
use dbgc_store::FrameStore;

use crate::check::{check_error_bound, RefFrame};
use crate::host::process_cpu_s;
use std::collections::BTreeMap;

use crate::report::{mean, median};
use crate::{gen_frame, layout, queries, Run, Q};

/// Frame indices taken from each preset; frame `j` comes from scene
/// layout `2·seed + j`.
const FRAME_INDICES: [u32; 2] = [0, 5];
/// Passes of the query mix over the twelve archived frames.
const QUERY_ROUNDS: usize = 4;
/// Capture spacing of the codec frames when they are archived for the
/// query mix (a 10 Hz drive).
const CAPTURE_PERIOD_US: u64 = 100_000;

/// Per-frame codec figures, summed into per-layer and end-to-end metrics.
#[derive(Debug, Default)]
pub struct CodecTally {
    /// CPU and wall time of each compress, by source frame.
    comp_cpu_ms: BTreeMap<usize, Vec<f64>>,
    comp_wall_ms: BTreeMap<usize, Vec<f64>>,
    stages: [Vec<f64>; 6],
    sections: [f64; 5],
    counts: [f64; 4],
    bytes: f64,
    input_points: f64,
    frames: f64,
    dec_cpu_ms: BTreeMap<usize, Vec<f64>>,
    dec_stages: [Vec<f64>; 4],
}

impl CodecTally {
    /// One compress of source frame `src`.
    pub fn compressed(
        &mut self,
        src: usize,
        s: &CompressionStats,
        stream_bytes: usize,
        cpu_ms: f64,
        wall_ms: f64,
    ) {
        let t = &s.timing;
        self.comp_cpu_ms.entry(src).or_default().push(cpu_ms);
        self.comp_wall_ms.entry(src).or_default().push(wall_ms);
        self.frames += 1.0;
        for (v, d) in self.stages.iter_mut().zip([t.den, t.oct, t.cor, t.org, t.spa, t.out]) {
            v.push(d.as_secs_f64() * 1e3);
        }
        let sec = &s.sections;
        for (v, b) in self.sections.iter_mut().zip([
            sec.header,
            sec.dense,
            sec.sparse,
            sec.outlier,
            sec.index,
        ]) {
            *v += b as f64;
        }
        for (v, c) in self.counts.iter_mut().zip([
            s.dense_points,
            s.sparse_points,
            s.outlier_points,
            s.polylines,
        ]) {
            *v += c as f64;
        }
        self.bytes += stream_bytes as f64;
        self.input_points += s.total_points as f64;
    }

    /// One decompress of source frame `src`.
    pub fn decompressed(&mut self, src: usize, stats: &DecompressStats, cpu_ms: f64) {
        self.dec_cpu_ms.entry(src).or_default().push(cpu_ms);
        for (v, d) in self.dec_stages.iter_mut().zip([stats.oct, stats.spa, stats.cor, stats.out]) {
            v.push(d.as_secs_f64() * 1e3);
        }
    }

    /// CPU costs are the mean over source frames of each frame's median:
    /// the median drops a call the host stalled, the mean weighs every
    /// frame of the fixed set alike. Stage times, sizes and counts are
    /// plain means per frame.
    pub fn record(&self, run: &mut Run) {
        let m = &mut run.metrics;
        let frames = self.frames.max(1.0);
        m.set("compress_cpu_ms", mean_of_medians(&self.comp_cpu_ms));
        m.set("decompress_cpu_ms", mean_of_medians(&self.dec_cpu_ms));
        m.set("bits_per_point", 8.0 * self.bytes / self.input_points.max(1.0));
        m.set("compress.cpu_ms", mean_of_medians(&self.comp_cpu_ms));
        m.set("compress.wall_ms", mean_of_medians(&self.comp_wall_ms));
        for (name, v) in ["den", "oct", "cor", "org", "spa", "out"].iter().zip(&self.stages) {
            m.set(format!("compress.{name}_ms"), mean(v));
        }
        for (name, v) in ["oct", "spa", "cor", "out"].iter().zip(&self.dec_stages) {
            m.set(format!("decompress.{name}_ms"), mean(v));
        }
        for (name, v) in ["header", "dense", "sparse", "outlier", "index"].iter().zip(self.sections)
        {
            m.set(format!("bytes.{name}"), v / frames);
        }
        for (name, v) in
            ["points.dense", "points.sparse", "points.outlier", "polylines"].iter().zip(self.counts)
        {
            m.set(*name, v / frames);
        }
    }
}

fn mean_of_medians(by_src: &BTreeMap<usize, Vec<f64>>) -> f64 {
    let medians: Vec<f64> = by_src.values().map(|v| median(v)).collect();
    mean(&medians)
}

/// First-pass output of one frame, kept for the checks.
struct FirstPass {
    bytes: Vec<u8>,
    decoded: Vec<Point3>,
    classes: (usize, usize, usize),
}

pub fn run(run: &mut Run, config: DbgcConfig) {
    let seed = run.seed;
    let clouds: Vec<PointCloud> = run.setup(
        |run| {
            let mut clouds = Vec::new();
            for preset in ScenePreset::all() {
                for (j, idx) in FRAME_INDICES.into_iter().enumerate() {
                    clouds.push(gen_frame(run, preset, layout(seed, 2, j), idx));
                }
            }
            // Warm-up: the compressor's per-thread scratch fills on first use.
            let dbgc = dbgc::Dbgc::new(config.clone().with_threads(1));
            let warm = dbgc.compress(&clouds[0]).expect("warm-up compress");
            dbgc::decompress(&warm.bytes).expect("warm-up decompress");
            clouds
        },
        drop,
    );

    let dbgc = dbgc::Dbgc::new(config.with_threads(1));
    let mut tally = CodecTally::default();
    let mut latency_ms = Vec::new();
    let mut first: Vec<Option<FirstPass>> = (0..clouds.len()).map(|_| None).collect();
    let (t0, loop_c0) = (std::time::Instant::now(), process_cpu_s());
    let mut frames = 0u64;
    for pass in 0.. {
        let pass_w0 = run.clock.ns();
        for (i, cloud) in clouds.iter().enumerate() {
            let (w0, c0) = (run.clock.ns(), process_cpu_s());
            let frame = dbgc.compress(cloud);
            let (c1, w1) = (process_cpu_s(), run.clock.ns());
            run.ops.compresses += 1;
            let frame = match frame {
                Ok(f) => f,
                Err(e) => {
                    run.ops.failed += 1;
                    run.fail(format!("compress of frame {i}: {e}"));
                    continue;
                }
            };
            let decoded = dbgc::decompress(&frame.bytes);
            let (c2, w2) = (process_cpu_s(), run.clock.ns());
            run.ops.decompresses += 1;
            let (cloud_out, dstats) = match decoded {
                Ok(d) => d,
                Err(e) => {
                    run.ops.failed += 1;
                    run.fail(format!("decompress of frame {i}: {e}"));
                    continue;
                }
            };
            frames += 1;
            tally.compressed(
                i,
                &frame.stats,
                frame.bytes.len(),
                (c1 - c0) * 1e3,
                (w1 - w0) as f64 * 1e-6,
            );
            tally.decompressed(i, &dstats, (c2 - c1) * 1e3);
            latency_ms.push((w2 - w0) as f64 * 1e-6);
            let id = run.tracer.span("frame", None, w0, w2, Some((0, i as u32)));
            run.tracer.span("compress", Some(id), w0, w1, Some((0, i as u32)));
            run.tracer.span("decompress", Some(id), w1, w2, Some((0, i as u32)));
            if cloud_out.len() != cloud.len() {
                run.fail(format!(
                    "frame {i}: decoded {} of {} points",
                    cloud_out.len(),
                    cloud.len()
                ));
            }
            match &first[i] {
                None => {
                    let s = &frame.stats;
                    first[i] = Some(FirstPass {
                        bytes: frame.bytes,
                        decoded: cloud_out.into_points(),
                        classes: (s.dense_points, s.sparse_points, s.outlier_points),
                    });
                }
                Some(f) => {
                    if f.bytes != frame.bytes || f.decoded != cloud_out.points() {
                        run.fail(format!("frame {i}: pass {pass} output differs from pass 0"));
                    }
                }
            }
        }
        run.tracer.span("pass", None, pass_w0, run.clock.ns(), None);
        if t0.elapsed().as_secs_f64() >= run.seconds {
            break;
        }
    }
    let loop_cpu_ms = (process_cpu_s() - loop_c0) * 1e3;
    tally.record(run);
    run.metrics.set("cpu_ms_per_frame", loop_cpu_ms / frames.max(1) as f64);
    run.latency_tails(&latency_ms);

    // Checks on the first pass: later passes matched it bit for bit.
    let mut refs = Vec::new();
    let mut store = FrameStore::new();
    for (i, (cloud, f)) in clouds.iter().zip(first).enumerate() {
        let Some(f) = f else { continue };
        if let Err(e) = check_error_bound(cloud.points(), &f.decoded, Q) {
            run.fail(format!("frame {i}: {e}"));
            continue;
        }
        let (dense, sparse, outlier) = f.classes;
        if let Err(e) = store.ingest(f.bytes, i as u64 * CAPTURE_PERIOD_US) {
            run.fail(format!("archiving frame {i}: {e}"));
            continue;
        }
        match RefFrame::new(f.decoded, dense, sparse, outlier) {
            Ok(r) => refs.push(r),
            Err(e) => run.fail(format!("frame {i}: {e}")),
        }
    }
    let refs: Vec<&RefFrame> = refs.iter().collect();
    if refs.len() == clouds.len() {
        queries::run(run, &store, &refs, QUERY_ROUNDS);
    }
}
