//! Output checks computed apart from the program: a grid search for the
//! error bound, a reference filter for queries, and the span tiling of
//! each frame's latency.

use dbgc_geom::fxhash::FxHashMap;
use dbgc_geom::{Aabb, Point3};

/// Decoded and input clouds agree within `√3·q` both ways, with equal
/// point counts (paper problem statement; DESIGN.md §5). Neighbours are
/// found by a uniform grid of side `√3·q`, not by the encoder's mapping.
pub fn check_error_bound(input: &[Point3], decoded: &[Point3], q: f64) -> Result<(), String> {
    if input.len() != decoded.len() {
        return Err(format!("decoded {} points, input has {}", decoded.len(), input.len()));
    }
    // A relative slack of 1e-9 absorbs the last-bit rounding of the
    // decoder's dequantization; a real violation is centimetres.
    let r = 3f64.sqrt() * q * (1.0 + 1e-9);
    nearest_within(input, decoded, r)
        .map_err(|i| format!("input point {i} {:?} has no decoded point within {r}", input[i]))?;
    nearest_within(decoded, input, r)
        .map_err(|i| format!("decoded point {i} {:?} has no input point within {r}", decoded[i]))
}

/// `Err(i)` for the first point of `from` with no point of `to` within `r`.
fn nearest_within(from: &[Point3], to: &[Point3], r: f64) -> Result<(), usize> {
    let cell =
        |p: Point3| ((p.x / r).floor() as i64, (p.y / r).floor() as i64, (p.z / r).floor() as i64);
    let mut grid: FxHashMap<(i64, i64, i64), Vec<u32>> = FxHashMap::default();
    for (i, &p) in to.iter().enumerate() {
        grid.entry(cell(p)).or_default().push(i as u32);
    }
    let r2 = r * r;
    'points: for (i, &p) in from.iter().enumerate() {
        let (cx, cy, cz) = cell(p);
        for dx in -1..=1 {
            for dy in -1..=1 {
                for dz in -1..=1 {
                    if let Some(bucket) = grid.get(&(cx + dx, cy + dy, cz + dz)) {
                        if bucket.iter().any(|&j| to[j as usize].dist2(p) <= r2) {
                            continue 'points;
                        }
                    }
                }
            }
        }
        return Err(i);
    }
    Ok(())
}

/// Stream section class of a decoded point, as the benchmark labels it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Dense,
    Sparse,
    Outlier,
}

/// One fully decoded frame with class labels. `dbgc::decompress` emits
/// the dense section, then the sparse groups, then the outliers; the
/// encoder's point counts split the output into those three ranges.
#[derive(Debug, Clone)]
pub struct RefFrame {
    pub points: Vec<Point3>,
    pub dense: usize,
    pub sparse: usize,
}

impl RefFrame {
    pub fn new(
        points: Vec<Point3>,
        dense: usize,
        sparse: usize,
        outlier: usize,
    ) -> Result<RefFrame, String> {
        if dense + sparse + outlier != points.len() {
            return Err(format!(
                "encoder class counts {dense}+{sparse}+{outlier} != {} decoded points",
                points.len()
            ));
        }
        Ok(RefFrame { points, dense, sparse })
    }

    pub fn class(&self, i: usize) -> Class {
        if i < self.dense {
            Class::Dense
        } else if i < self.dense + self.sparse {
            Class::Sparse
        } else {
            Class::Outlier
        }
    }
}

/// The benchmark's own statement of a query: an optional inclusive box,
/// an optional class, and a capture-time window `[start_us, end_us)`.
#[derive(Debug, Clone, Copy)]
pub struct Filter {
    pub bbox: Option<Aabb>,
    pub class: Option<Class>,
    pub start_us: u64,
    pub end_us: u64,
}

impl Filter {
    fn keeps(&self, p: Point3, class: Class) -> bool {
        let in_box = self.bbox.is_none_or(|b| {
            p.x >= b.min.x
                && p.x <= b.max.x
                && p.y >= b.min.y
                && p.y <= b.max.y
                && p.z >= b.min.z
                && p.z <= b.max.z
        });
        in_box && self.class.is_none_or(|c| c == class)
    }
}

/// A point as the multiset comparison sees it: capture time plus exact
/// coordinate bits.
pub type Key = (u64, u64, u64, u64);

pub fn key(time_us: u64, p: Point3) -> Key {
    (time_us, p.x.to_bits(), p.y.to_bits(), p.z.to_bits())
}

/// Expected answer of `filter` over archived frames given as
/// `(capture time, decoded reference)`.
pub fn reference_answer<'a>(
    filter: &Filter,
    frames: impl IntoIterator<Item = (u64, &'a RefFrame)>,
) -> Vec<Key> {
    let mut out = Vec::new();
    for (time_us, frame) in frames {
        if !(filter.start_us..filter.end_us).contains(&time_us) {
            continue;
        }
        for (i, &p) in frame.points.iter().enumerate() {
            if filter.keeps(p, frame.class(i)) {
                out.push(key(time_us, p));
            }
        }
    }
    out
}

/// `got` and `want` hold the same points with the same multiplicities.
pub fn check_multiset(mut got: Vec<Key>, mut want: Vec<Key>) -> Result<(), String> {
    got.sort_unstable();
    want.sort_unstable();
    if got == want {
        return Ok(());
    }
    let first =
        got.iter().zip(&want).position(|(a, b)| a != b).unwrap_or(got.len().min(want.len()));
    Err(format!(
        "query returned {} points, reference filter {}; first difference at sorted index {first}",
        got.len(),
        want.len()
    ))
}

/// A frame's latency spans (generator lateness, compress, send, ack wait;
/// `(start_ns, end_ns)` in order) tile `[due_ns, ack_ns]` with no gap or
/// overlap, so their durations add up to the frame's latency.
pub fn check_span_sum(due_ns: u64, ack_ns: u64, spans: &[(u64, u64)]) -> Result<(), String> {
    let mut at = due_ns;
    for (i, &(start, end)) in spans.iter().enumerate() {
        if start != at {
            return Err(format!("span {i} starts at {start} ns, previous ended at {at} ns"));
        }
        if end < start {
            return Err(format!("span {i} ends before it starts"));
        }
        at = end;
    }
    if at != ack_ns {
        return Err(format!("spans end at {at} ns, ack arrived at {ack_ns} ns"));
    }
    let sum: u64 = spans.iter().map(|(s, e)| e - s).sum();
    debug_assert_eq!(sum, ack_ns - due_ns);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const Q: f64 = 0.02;

    /// Points 1 m apart, so no shifted point can land near a neighbour.
    fn lattice() -> Vec<Point3> {
        let mut v = Vec::new();
        for i in 0..10 {
            for j in 0..10 {
                for k in 0..3 {
                    v.push(Point3::new(i as f64, j as f64 - 5.0, k as f64 * 0.5 - 1.0));
                }
            }
        }
        v
    }

    /// Every coordinate moved by up to `q`: what a correct decoder may do.
    fn decoded_within_bound(input: &[Point3]) -> Vec<Point3> {
        input
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let s = [1.0, -1.0, 0.5][i % 3] * Q;
                Point3::new(p.x + s, p.y - s, p.z + 0.99 * Q)
            })
            .collect()
    }

    #[test]
    fn error_bound_accepts_points_within_bound() {
        let input = lattice();
        let decoded = decoded_within_bound(&input);
        check_error_bound(&input, &decoded, Q).unwrap();
    }

    #[test]
    fn error_bound_rejects_point_moved_two_bounds() {
        let input = lattice();
        let mut decoded = decoded_within_bound(&input);
        // 2·q along each axis: a diagonal shift of 2·√3·q.
        let p = input[57];
        decoded[57] = Point3::new(p.x + 2.0 * Q, p.y + 2.0 * Q, p.z + 2.0 * Q);
        assert!((decoded[57].dist(p) - 2.0 * 3f64.sqrt() * Q).abs() < 1e-12);
        let err = check_error_bound(&input, &decoded, Q).unwrap_err();
        assert!(err.contains("57"), "{err}");
    }

    #[test]
    fn error_bound_rejects_dropped_point() {
        let input = lattice();
        let mut decoded = decoded_within_bound(&input);
        decoded.remove(10);
        assert!(check_error_bound(&input, &decoded, Q).is_err());
        // Even with the count restored by a duplicate, the dropped input
        // point has no decoded partner.
        decoded.push(decoded[0]);
        let err = check_error_bound(&input, &decoded, Q).unwrap_err();
        assert!(err.contains("input point 10"), "{err}");
    }

    fn two_frames() -> Vec<(u64, RefFrame)> {
        let pts = lattice();
        let n = pts.len();
        vec![
            (0, RefFrame::new(pts.clone(), n / 2, n / 4, n - n / 2 - n / 4).unwrap()),
            (100_000, RefFrame::new(pts, n / 3, n / 3, n - 2 * (n / 3)).unwrap()),
        ]
    }

    fn filter() -> Filter {
        Filter {
            bbox: Some(Aabb { min: Point3::new(2.0, -3.0, -2.0), max: Point3::new(6.0, 3.0, 2.0) }),
            class: Some(Class::Sparse),
            start_us: 0,
            end_us: 200_000,
        }
    }

    #[test]
    fn query_check_accepts_exact_answer_in_any_order() {
        let frames = two_frames();
        let want = reference_answer(&filter(), frames.iter().map(|(t, f)| (*t, f)));
        assert!(!want.is_empty());
        let mut got = want.clone();
        got.reverse();
        check_multiset(got, want).unwrap();
    }

    #[test]
    fn query_check_rejects_dropped_point() {
        let frames = two_frames();
        let want = reference_answer(&filter(), frames.iter().map(|(t, f)| (*t, f)));
        let mut got = want.clone();
        got.pop();
        assert!(check_multiset(got, want).is_err());
    }

    #[test]
    fn query_check_rejects_added_point() {
        let frames = two_frames();
        let want = reference_answer(&filter(), frames.iter().map(|(t, f)| (*t, f)));
        let mut got = want.clone();
        // A duplicate and an outsider both count as added.
        got.push(want[0]);
        assert!(check_multiset(got, want.clone()).is_err());
        let mut got = want.clone();
        got.push(key(0, Point3::new(0.0, -5.0, -1.0)));
        assert!(check_multiset(got, want).is_err());
    }

    #[test]
    fn reference_filter_honours_time_window_and_class() {
        let frames = two_frames();
        let mut f = filter();
        f.end_us = 100_000; // first frame only
        let first = reference_answer(&f, frames.iter().map(|(t, f)| (*t, f)));
        assert!(first.iter().all(|k| k.0 == 0));
        f.class = None;
        f.bbox = None;
        let all = reference_answer(&f, frames.iter().map(|(t, f)| (*t, f)));
        assert_eq!(all.len(), frames[0].1.points.len());
    }

    #[test]
    fn span_sum_accepts_tiling() {
        check_span_sum(100, 900, &[(100, 150), (150, 600), (600, 700), (700, 900)]).unwrap();
        // A zero-length span (ack before the send returned) still tiles.
        check_span_sum(100, 700, &[(100, 150), (150, 600), (600, 700), (700, 700)]).unwrap();
    }

    #[test]
    fn span_sum_rejects_gap() {
        let err = check_span_sum(100, 900, &[(100, 150), (160, 600), (600, 700), (700, 900)])
            .unwrap_err();
        assert!(err.contains("span 1"), "{err}");
        // Spans that stop short of the ack leave a gap at the end.
        assert!(check_span_sum(100, 900, &[(100, 150), (150, 600), (600, 800)]).is_err());
        // ... and an overlap is no tiling either.
        assert!(check_span_sum(100, 900, &[(100, 150), (140, 900)]).is_err());
    }
}
