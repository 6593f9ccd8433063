//! The fixed, time-windowed query mix run over an archive after its
//! stream ends, and its check against the benchmark's reference filter.

use dbgc_geom::{Aabb, Point3};
use dbgc_store::{DensityClass, FrameStore, Query};

use crate::check::{check_multiset, key, reference_answer, Class, Filter, RefFrame};
use crate::host::process_cpu_s;
use crate::report::{mean, median, QUERY_NAMES};
use crate::Run;

/// The mix over an archive whose newest frame was captured at `last_us`
/// (boxes in sensor coordinates, metres; z up, ground near −1.7 m):
///
/// * `near`: a 20 m × 20 m box around the vehicle, above the ground,
///   last second;
/// * `street`: the street ahead, 50 m × 16 m, last 200 ms;
/// * `dense` / `sparse`: one section class, last 100 ms;
/// * `frame`: every point of the newest frame.
///
/// Windows end just after the newest frame, so a 5 Hz archive answers the
/// short windows from its newest frame alone and a 100 Hz one from 10–20.
pub fn mix(last_us: u64) -> Vec<(&'static str, Filter)> {
    let end_us = last_us + 1;
    let since = |window_us: u64| end_us.saturating_sub(window_us);
    let bbox = |min: [f64; 3], max: [f64; 3]| {
        Some(Aabb {
            min: Point3::new(min[0], min[1], min[2]),
            max: Point3::new(max[0], max[1], max[2]),
        })
    };
    let f = |bbox, class, start_us| Filter { bbox, class, start_us, end_us };
    let mix = vec![
        ("near", f(bbox([-10.0, -10.0, -1.5], [10.0, 10.0, 3.0]), None, since(1_000_000))),
        ("street", f(bbox([0.0, -8.0, -3.0], [50.0, 8.0, 6.0]), None, since(200_000))),
        ("dense", f(None, Some(Class::Dense), since(100_000))),
        ("sparse", f(None, Some(Class::Sparse), since(100_000))),
        ("frame", f(None, None, last_us)),
    ];
    debug_assert!(mix.iter().map(|(n, _)| *n).eq(QUERY_NAMES));
    mix
}

/// The same filter as a store query.
fn to_query(f: &Filter) -> Query {
    let mut q = Query::TimeRange { start_us: f.start_us, end_us: f.end_us };
    if let Some(b) = f.bbox {
        q = Query::and(Query::Aabb(b), q);
    }
    if let Some(c) = f.class {
        let class = match c {
            Class::Dense => DensityClass::Dense,
            Class::Sparse => DensityClass::Sparse,
            Class::Outlier => DensityClass::Outlier,
        };
        q = Query::and(Query::DensityClass(class), q);
    }
    q
}

/// Run the mix `rounds` times over `store`, whose frame `id` decodes to
/// `refs[id]`, recording per-query metrics and checking every answer:
/// the first round against the reference filter, later rounds against
/// the first. A workload with a small archive runs more rounds, so every
/// run spends about a second of CPU in queries.
///
/// `query_cpu_ms` is the mean over the five queries of each one's median
/// CPU time: the median drops a round the host stalled, the mean weighs
/// the five alike.
pub fn run(run: &mut Run, store: &FrameStore, refs: &[&RefFrame], rounds: usize) {
    let frames = store.frames();
    assert_eq!(frames.len(), refs.len(), "one reference per archived frame");
    let Some(last_us) = frames.iter().map(|f| f.time_us).max() else {
        run.fail("query mix: empty archive".into());
        return;
    };
    let mix = mix(last_us);
    let mut cpu_ms: Vec<Vec<f64>> = vec![Vec::new(); mix.len()];
    let mut points = vec![0usize; mix.len()];
    // First-round answer of each query: its figures and a digest of its
    // points in order (later rounds must match it exactly).
    let mut first: Vec<Option<(dbgc_store::QueryResult, u64)>> =
        (0..mix.len()).map(|_| None).collect();
    for _ in 0..rounds {
        for (i, (name, filter)) in mix.iter().enumerate() {
            let query = to_query(filter);
            run.ops.queries += 1;
            let (w0, c0) = (run.clock.ns(), process_cpu_s());
            let result = store.query(&query);
            let (c1, w1) = (process_cpu_s(), run.clock.ns());
            run.tracer.span("store.query", None, w0, w1, None);
            let result = match result {
                Ok(r) => r,
                Err(e) => {
                    run.ops.failed += 1;
                    run.fail(format!("query {name}: {e}"));
                    continue;
                }
            };
            cpu_ms[i].push((c1 - c0) * 1e3);
            let digest = digest(&result.points);
            match &first[i] {
                None => {
                    if result.frames_fallback != 0 {
                        run.fail(format!(
                            "query {name}: {} frames fell back to full decode",
                            result.frames_fallback
                        ));
                    }
                    let got = result.points.iter().map(|r| key(r.time_us, r.point.pos)).collect();
                    let want = reference_answer(
                        filter,
                        frames.iter().zip(refs).map(|(f, r)| (f.time_us, *r)),
                    );
                    if let Err(e) = check_multiset(got, want) {
                        run.fail(format!("query {name}: {e}"));
                    }
                    points[i] = result.points.len();
                    let figures = dbgc_store::QueryResult { points: Vec::new(), ..result };
                    first[i] = Some((figures, digest));
                }
                Some((_, d)) => {
                    if *d != digest {
                        run.fail(format!("query {name}: answer changed between rounds"));
                    }
                }
            }
        }
    }
    let medians: Vec<f64> = cpu_ms.iter().map(|v| median(v)).collect();
    run.metrics.set("query_cpu_ms", mean(&medians));
    for (i, (name, _)) in mix.iter().enumerate() {
        let (r, _) = first[i].take().unwrap_or_default();
        run.metrics.set(format!("query.cpu_ms.{name}"), median(&cpu_ms[i]));
        run.metrics.set(format!("query.bytes_touched.{name}"), r.bytes_touched as f64);
        run.metrics.set(format!("query.frames_pruned.{name}"), r.frames_pruned as f64);
        run.metrics.set(format!("query.frames_partial.{name}"), r.frames_partial as f64);
        run.metrics.set(format!("query.frames_fallback.{name}"), r.frames_fallback as f64);
        run.metrics.set(format!("query.points.{name}"), points[i] as f64);
    }
}

/// FNV-1a over every point's frame and coordinate bits, in answer order.
fn digest(points: &[dbgc_store::PointRecord]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in points {
        let p = r.point.pos;
        for w in [r.frame_id, r.time_us, p.x.to_bits(), p.y.to_bits(), p.z.to_bits()] {
            h = (h ^ w).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}
