//! The two open-loop workloads: `sensor_live` (compress on the sensor,
//! decode on the server) and `archive_ingest` (pre-compressed frames in
//! archival bypass mode). Both stream over loopback TCP into a one-shard
//! `TcpFleetServer`, drain the fleet into a `FrameStore`, then run the
//! query mix over the archive.

use std::io::{self, Read};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use dbgc::{CompressionStats, Dbgc, DbgcConfig};
use dbgc_geom::PointCloud;
use dbgc_lidar_sim::presets::ScenePreset;
use dbgc_net::protocol::{read_frame, Control};
use dbgc_net::session::{Connect, ResilientClient, SessionConfig, SessionStats};
use dbgc_net::tcp::{TcpConnector, TcpFleetServer, TcpTuning};
use dbgc_net::FleetConfig;
use dbgc_store::FrameStore;

use crate::check::{check_error_bound, check_span_sum, RefFrame};
use crate::codec::CodecTally;
use crate::host::{process_cpu_s, Clock};
use crate::report::{max, median};
use crate::{gen_frame, layout, queries, Run, Q};

/// How often the main thread drains the fleet into the archive.
const DRAIN_EVERY: Duration = Duration::from_millis(10);
/// Length of the idle window that prices the TCP edge's polling.
const IDLE_WINDOW: Duration = Duration::from_secs(1);
/// Lead between the generator's start and the first due frame.
const LEAD_NS: u64 = 20_000_000;
/// Decodes of each distinct archived source frame; `decompress_cpu_ms`
/// takes the median of each frame's decodes.
const DECODE_REPS: usize = 7;
/// Session ids of the warm-up connections (never archived).
const WARMUP_SESSION: u64 = 1000;

/// One sensor of an open loop.
struct Sensor {
    session: u64,
    preset: ScenePreset,
    period_ns: u64,
    phase_ns: u64,
    /// Distinct source frames; frame `seq` replays source `seq % len`.
    sources: usize,
}

impl Sensor {
    fn capture_ns(&self, seq: u32) -> u64 {
        self.phase_ns + u64::from(seq) * self.period_ns
    }
}

/// What a sensor sends: frames compressed on each tick, or streams
/// compressed during set-up.
#[derive(Clone)]
enum Payloads {
    Live(Dbgc, Arc<Vec<PointCloud>>),
    Pre(Arc<Vec<Vec<u8>>>),
}

/// The generator's record of one frame, on the run clock.
#[derive(Debug, Clone)]
struct Sent {
    sensor: usize,
    seq: u32,
    due: u64,
    wake: u64,
    /// End of compress (equal to `wake` for pre-compressed payloads).
    compressed: u64,
    send_end: u64,
    compress: Option<(CompressionStats, f64)>,
    /// The payload, kept for the archive check on live frames.
    bytes: Option<Vec<u8>>,
    send_error: Option<String>,
}

/// Ack arrivals of one session: `(run clock ns, next_expected)`.
type AckLog = Arc<Mutex<Vec<(u64, u32)>>>;

/// A `Connect` that stamps every ack as it arrives at the client's read
/// half, before the session's own ack pump sees it.
struct TapConnector {
    inner: TcpConnector,
    clock: Clock,
    log: AckLog,
}

impl Connect for TapConnector {
    type Tx = TcpStream;
    type Rx = AckTap;

    fn connect(&mut self) -> io::Result<(TcpStream, AckTap)> {
        let (tx, rx) = self.inner.connect()?;
        Ok((
            tx,
            AckTap { inner: rx, buf: Vec::new(), clock: self.clock, log: Arc::clone(&self.log) },
        ))
    }
}

struct AckTap {
    inner: TcpStream,
    buf: Vec<u8>,
    clock: Clock,
    log: AckLog,
}

impl Read for AckTap {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(out)?;
        if n > 0 {
            let now = self.clock.ns();
            self.buf.extend_from_slice(&out[..n]);
            // Parse every complete frame in the copy; the bytes themselves
            // pass to the session untouched.
            loop {
                let mut rest: &[u8] = &self.buf;
                let Ok(frame) = read_frame(&mut rest) else { break };
                let used = self.buf.len() - rest.len();
                if let Some(Control::Ack { next_expected, .. }) = Control::from_frame(&frame) {
                    self.log.lock().expect("ack log lock poisoned").push((now, next_expected));
                }
                self.buf.drain(..used);
            }
        }
        Ok(n)
    }
}

/// Server, warmed up, plus the sensors' payloads.
struct Prepared {
    server: TcpFleetServer,
    payloads: Vec<Payloads>,
    clouds: Vec<Arc<Vec<PointCloud>>>,
    /// Per sensor, per source: encoder stats of the pre-compressed stream.
    pre_stats: Vec<Vec<CompressionStats>>,
}

fn bind(decompress: bool) -> TcpFleetServer {
    let mut config = FleetConfig::new(8);
    config.decompress = decompress;
    TcpFleetServer::bind("127.0.0.1:0", config, TcpTuning::default()).expect("bind loopback fleet")
}

/// Send one frame per sensor on a throw-away session and drain it, so the
/// accept path, the shard and (with `decompress`) the server decoder are
/// warm before the clock starts.
fn warm_up(server: &TcpFleetServer, payloads: &[Vec<u8>]) {
    for (i, bytes) in payloads.iter().enumerate() {
        let sid = WARMUP_SESSION + i as u64;
        let mut client =
            ResilientClient::new(TcpConnector::new(server.local_addr()), SessionConfig::new(sid));
        client.send_payload(bytes.clone()).expect("warm-up send");
        client.finish().expect("warm-up finish");
    }
    let handle = server.handle();
    let mut got = 0;
    let until = std::time::Instant::now() + Duration::from_secs(10);
    while got < payloads.len() {
        got += handle.drain().iter().map(|(_, f)| f.len()).sum::<usize>();
        assert!(std::time::Instant::now() < until, "warm-up frames never reached the fleet");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// `sensor_live`: one kitti-city sensor at 5 Hz, compressing each frame on
/// its tick with the default config (`threads = 0`) and a decoding server.
pub fn sensor_live(run: &mut Run, config: DbgcConfig) {
    let sensors = vec![Sensor {
        session: 1,
        preset: ScenePreset::KittiCity,
        period_ns: 200_000_000,
        phase_ns: 0,
        sources: 8,
    }];
    let seed = run.seed;
    let prepared = run.setup(
        |run| {
            let s = &sensors[0];
            let clouds: Vec<PointCloud> = (0..s.sources)
                .map(|k| gen_frame(run, s.preset, layout(seed, s.sources, k), k as u32))
                .collect();
            let dbgc = Dbgc::new(config.clone());
            // Warm-up: spins up the shared pool and the per-thread scratch.
            let warm = dbgc.compress(&clouds[0]).expect("warm-up compress");
            let server = bind(true);
            warm_up(&server, &[warm.bytes]);
            let clouds = Arc::new(clouds);
            Prepared {
                server,
                payloads: vec![Payloads::Live(dbgc, Arc::clone(&clouds))],
                clouds: vec![clouds],
                pre_stats: vec![Vec::new()],
            }
        },
        |p| drop(p.server.shutdown()),
    );
    stream(run, &sensors, prepared, CodecTally::default(), 8);
}

/// `archive_ingest`: two sensors replaying pre-compressed, spatially
/// indexed drives at 50 Hz each, half a period apart, into a bypass-mode
/// server (`decompress = false`).
pub fn archive_ingest(run: &mut Run, config: DbgcConfig) {
    let sensor = |session, preset, phase_ns| Sensor {
        session,
        preset,
        period_ns: 20_000_000,
        phase_ns,
        sources: 4,
    };
    let sensors =
        vec![sensor(1, ScenePreset::KittiCity, 0), sensor(2, ScenePreset::ApolloUrban, 10_000_000)];
    let seed = run.seed;
    let mut tally = CodecTally::default();
    let prepared = run.setup(
        |run| {
            // Every set-up compresses the same frames; the tally keeps all
            // of them, so `compress_cpu_ms` is a median of three per frame.
            let dbgc = Dbgc::new(config.clone().with_spatial_index(true));
            let (mut payloads, mut clouds, mut pre_stats) = (Vec::new(), Vec::new(), Vec::new());
            for s in &sensors {
                let c: Vec<PointCloud> = (0..s.sources)
                    .map(|k| gen_frame(run, s.preset, layout(seed, s.sources, k), k as u32))
                    .collect();
                let (mut bytes, mut stats) = (Vec::new(), Vec::new());
                for (k, cloud) in c.iter().enumerate() {
                    let (w0, c0) = (run.clock.ns(), process_cpu_s());
                    let f = dbgc.compress(cloud).expect("set-up compress");
                    let (c1, w1) = (process_cpu_s(), run.clock.ns());
                    run.tracer.span("setup.compress", None, w0, w1, None);
                    tally.compressed(
                        payloads.len() * s.sources + k,
                        &f.stats,
                        f.bytes.len(),
                        (c1 - c0) * 1e3,
                        (w1 - w0) as f64 * 1e-6,
                    );
                    run.ops.compresses += 1;
                    stats.push(f.stats);
                    bytes.push(f.bytes);
                }
                payloads.push(Payloads::Pre(Arc::new(bytes)));
                clouds.push(Arc::new(c));
                pre_stats.push(stats);
            }
            let server = bind(false);
            let warm: Vec<Vec<u8>> = payloads
                .iter()
                .map(|p| match p {
                    Payloads::Pre(b) => b[0].clone(),
                    Payloads::Live(..) => unreachable!("archive sensors replay set-up streams"),
                })
                .collect();
            warm_up(&server, &warm);
            Prepared { server, payloads, clouds, pre_stats }
        },
        |p| drop(p.server.shutdown()),
    );
    stream(run, &sensors, prepared, tally, 2);
}

/// One archived frame.
struct Archived {
    sensor: usize,
    seq: u32,
    id: u64,
}

/// Stream every sensor's frames through the fleet into a new archive,
/// check delivery, decode and query the archive (`query_rounds` passes of
/// the mix).
fn stream(
    run: &mut Run,
    sensors: &[Sensor],
    prepared: Prepared,
    mut tally: CodecTally,
    query_rounds: usize,
) {
    let Prepared { server, payloads, clouds, pre_stats } = prepared;
    let frames_per_sensor: Vec<u32> = sensors
        .iter()
        .map(|s| (run.seconds * 1e9 / s.period_ns as f64).round().max(1.0) as u32)
        .collect();
    let logs: Vec<AckLog> = sensors.iter().map(|_| AckLog::default()).collect();
    let (go_tx, go_rx) = channel::<()>();
    let cpu_start = process_cpu_s();
    let (generator, last_due) =
        spawn_sensors(run.clock, sensors, &frames_per_sensor, &payloads, &server, &logs, go_rx);

    let total: usize = frames_per_sensor.iter().map(|&n| n as usize).sum();
    let deadline = run.clock.instant(last_due) + Duration::from_secs(15);
    let (store, archived) = drain_into_archive(run, sensors, &server, &clouds, total, deadline);
    let cpu_ms_per_frame = (process_cpu_s() - cpu_start) * 1e3 / total as f64;
    if archived.len() == total {
        run.metrics.set("cpu_ms_per_frame", cpu_ms_per_frame);
    }
    if run.tracer.enabled() {
        // Connections open, nothing in flight: what the edge burns idle.
        std::thread::sleep(Duration::from_millis(100));
        let (w0, c0) = (run.clock.ns(), process_cpu_s());
        std::thread::sleep(IDLE_WINDOW);
        let (c1, w1) = (process_cpu_s(), run.clock.ns());
        run.tracer.span("tcp.idle_window", None, w0, w1, None);
        run.metrics.set("tcp.idle_cpu_ms_per_s", (c1 - c0) * 1e3 / ((w1 - w0) as f64 * 1e-9));
    }
    let _ = go_tx.send(());
    let (sent, session_stats) = generator.join().expect("sensor thread panicked");
    let report = server.shutdown();

    // ---- delivery -----------------------------------------------------------
    run.ops.sent += sent.len() as u64;
    for s in &sent {
        if let Some(e) = &s.send_error {
            run.ops.failed += 1;
            run.fail(format!("send of session {} seq {}: {e}", sensors[s.sensor].session, s.seq));
        }
    }
    let (mut retransmits, mut reconnects) = (0, 0);
    for (i, st) in session_stats.iter().enumerate() {
        match st {
            Ok(st) => {
                retransmits += st.retransmits;
                reconnects += st.reconnects;
            }
            Err(e) => run.fail(format!("session {} did not finish: {e}", sensors[i].session)),
        }
    }
    let leftover: usize = report.drained.iter().map(|(_, f)| f.len()).sum();
    if leftover != 0 {
        run.fail(format!("{leftover} frames were still in the fleet at shutdown"));
    }
    if let Err(e) = report.fleet.verify_partition() {
        run.fail(format!("fleet partition: {e}"));
    }
    if report.conns_open != 0 {
        run.fail(format!("{} sockets open after shutdown", report.conns_open));
    }
    for (i, s) in sensors.iter().enumerate() {
        let seqs: Vec<u32> = archived.iter().filter(|a| a.sensor == i).map(|a| a.seq).collect();
        if !seqs.iter().copied().eq(0..frames_per_sensor[i]) {
            run.fail(format!(
                "session {}: archived {} frames, not each of 0..{} once and in order",
                s.session,
                seqs.len(),
                frames_per_sensor[i]
            ));
        }
    }
    let sent_of = |a: &Archived| sent.iter().find(|s| s.sensor == a.sensor && s.seq == a.seq);
    for a in &archived {
        let stored = &store.frames()[a.id as usize].bytes;
        let expected = match &payloads[a.sensor] {
            Payloads::Pre(b) => Some(&b[a.seq as usize % sensors[a.sensor].sources]),
            Payloads::Live(..) => sent_of(a).and_then(|s| s.bytes.as_ref()),
        };
        if expected != Some(stored) {
            run.fail(format!(
                "session {} seq {}: archived bytes differ from sent",
                sensors[a.sensor].session, a.seq
            ));
        }
    }
    record_latency(run, sensors, &sent, &logs);
    run.metrics.set("net.retransmits", retransmits as f64);
    run.metrics.set("net.reconnects", reconnects as f64);
    run.metrics.set("fleet.frames_stored", report.fleet.counter("net.frames_stored") as f64);
    run.metrics.set("fleet.conns_reaped", report.conns_reaped as f64);
    run.metrics.set("fleet.ack_drops", report.fleet.ack_drops as f64);

    // ---- decode each distinct source frame from the archive ---------------
    // Live frames carry the stats of the compress that produced them;
    // set-up streams carry the stats of set-up.
    let src_id = |i: usize, seq: u32| i * sensors[i].sources + seq as usize % sensors[i].sources;
    for s in &sent {
        if let Some((stats, cpu_ms)) = &s.compress {
            let wall_ms = (s.compressed - s.wake) as f64 * 1e-6;
            let len = s.bytes.as_ref().map_or(0, Vec::len);
            tally.compressed(src_id(s.sensor, s.seq), stats, len, *cpu_ms, wall_ms);
            run.ops.compresses += 1;
        }
    }
    let mut refs: Vec<Vec<Option<RefFrame>>> =
        sensors.iter().map(|s| vec![None; s.sources]).collect();
    for a in &archived {
        let src = a.seq as usize % sensors[a.sensor].sources;
        if refs[a.sensor][src].is_some() {
            continue;
        }
        let stats = match &payloads[a.sensor] {
            Payloads::Pre(_) => Some(&pre_stats[a.sensor][src]),
            Payloads::Live(..) => sent_of(a).and_then(|s| s.compress.as_ref()).map(|c| &c.0),
        };
        let Some(stats) = stats else { continue };
        let bytes = &store.frames()[a.id as usize].bytes;
        let mut cloud = None;
        for _ in 0..DECODE_REPS {
            let c0 = process_cpu_s();
            let decoded = dbgc::decompress(bytes);
            let cpu_ms = (process_cpu_s() - c0) * 1e3;
            run.ops.decompresses += 1;
            match decoded {
                Ok((c, dstats)) => {
                    tally.decompressed(src_id(a.sensor, a.seq), &dstats, cpu_ms);
                    cloud = Some(c);
                }
                Err(e) => {
                    run.ops.failed += 1;
                    run.fail(format!(
                        "archived session {} seq {} does not decode: {e}",
                        sensors[a.sensor].session, a.seq
                    ));
                }
            }
        }
        let Some(cloud) = cloud else { continue };
        let session = sensors[a.sensor].session;
        if let Err(e) = check_error_bound(clouds[a.sensor][src].points(), cloud.points(), Q) {
            run.fail(format!("session {session} source frame {src}: {e}"));
            continue;
        }
        let (dense, sparse, outlier) =
            (stats.dense_points, stats.sparse_points, stats.outlier_points);
        match RefFrame::new(cloud.into_points(), dense, sparse, outlier) {
            Ok(r) => refs[a.sensor][src] = Some(r),
            Err(e) => run.fail(format!("session {session} source frame {src}: {e}")),
        }
    }
    tally.record(run);

    // ---- the query mix over the archive ------------------------------------
    let per_frame: Option<Vec<&RefFrame>> = archived
        .iter()
        .map(|a| refs[a.sensor][a.seq as usize % sensors[a.sensor].sources].as_ref())
        .collect();
    // A missing reference has already failed the run.
    if let Some(per_frame) = per_frame {
        queries::run(run, &store, &per_frame, query_rounds);
    }
}

/// Start the sensor thread: it sends every sensor's frames on schedule,
/// then waits for `go` before finishing its sessions. Returns the thread
/// and the last due time.
fn spawn_sensors(
    clock: Clock,
    sensors: &[Sensor],
    frames_per_sensor: &[u32],
    payloads: &[Payloads],
    server: &TcpFleetServer,
    logs: &[AckLog],
    go: std::sync::mpsc::Receiver<()>,
) -> (SensorThread, u64) {
    let t0 = clock.ns() + LEAD_NS;
    let mut schedule: Vec<(u64, usize, u32)> = Vec::new();
    for (i, s) in sensors.iter().enumerate() {
        schedule.extend((0..frames_per_sensor[i]).map(|seq| (t0 + s.capture_ns(seq), i, seq)));
    }
    schedule.sort_unstable();
    let last_due = schedule.last().map_or(t0, |e| e.0);
    let addr: SocketAddr = server.local_addr();
    let logs = logs.to_vec();
    let sessions: Vec<u64> = sensors.iter().map(|s| s.session).collect();
    let sources: Vec<usize> = sensors.iter().map(|s| s.sources).collect();
    let payloads = payloads.to_vec();
    let thread = std::thread::Builder::new()
        .name("s2a-sensors".into())
        .spawn(move || {
            let mut clients: Vec<_> = sessions
                .iter()
                .zip(&logs)
                .map(|(&sid, log)| {
                    let tap = TapConnector {
                        inner: TcpConnector::new(addr),
                        clock,
                        log: Arc::clone(log),
                    };
                    ResilientClient::new(tap, SessionConfig::new(sid))
                })
                .collect();
            let mut sent = Vec::with_capacity(schedule.len());
            for (due, i, seq) in schedule {
                let wait = clock.instant(due).saturating_duration_since(std::time::Instant::now());
                if !wait.is_zero() {
                    std::thread::sleep(wait);
                }
                let wake = clock.ns();
                let src = seq as usize % sources[i];
                let (payload, compress) = match &payloads[i] {
                    Payloads::Pre(b) => (b[src].clone(), None),
                    Payloads::Live(dbgc, clouds) => {
                        let c0 = process_cpu_s();
                        let f = dbgc.compress(&clouds[src]).expect("sensor compress");
                        let cpu_ms = (process_cpu_s() - c0) * 1e3;
                        (f.bytes, Some((f.stats, cpu_ms)))
                    }
                };
                // A live payload is kept for the archive check; its copy is
                // charged to the compress span (about 20 µs of ~100 ms).
                let bytes = compress.as_ref().map(|_| payload.clone());
                let compressed = if compress.is_some() { clock.ns() } else { wake };
                let result = clients[i].send_payload(payload);
                let send_end = clock.ns();
                sent.push(Sent {
                    sensor: i,
                    seq,
                    due,
                    wake,
                    compressed,
                    send_end,
                    compress,
                    bytes,
                    send_error: result.err().map(|e| e.to_string()),
                });
            }
            // Keep the connections open through the idle window, then wait
            // for every ack.
            let _ = go.recv();
            let stats =
                clients.into_iter().map(|c| c.finish().map_err(|e| e.to_string())).collect();
            (sent, stats)
        })
        .expect("spawn sensor thread");
    (thread, last_due)
}

type SensorThread = std::thread::JoinHandle<(Vec<Sent>, Vec<Result<SessionStats, String>>)>;

/// Drain the fleet into a new archive every `DRAIN_EVERY` until it holds
/// `total` frames or `deadline` passes, stamping each frame with its
/// capture time.
fn drain_into_archive(
    run: &mut Run,
    sensors: &[Sensor],
    server: &TcpFleetServer,
    clouds: &[Arc<Vec<PointCloud>>],
    total: usize,
    deadline: std::time::Instant,
) -> (FrameStore, Vec<Archived>) {
    let handle = server.handle();
    let mut store = FrameStore::new();
    let mut archived = Vec::with_capacity(total);
    let (mut drain_ms, mut ingest_ms) = (Vec::new(), Vec::new());
    while archived.len() < total {
        if std::time::Instant::now() > deadline {
            run.fail(format!(
                "only {} of {total} frames archived 15 s after the last was due",
                archived.len()
            ));
            break;
        }
        std::thread::sleep(DRAIN_EVERY);
        let d0 = run.clock.ns();
        let batches = handle.drain();
        let d1 = run.clock.ns();
        if batches.iter().all(|(_, f)| f.is_empty()) {
            continue;
        }
        drain_ms.push((d1 - d0) as f64 * 1e-6);
        let drain_span = run.tracer.span("fleet.drain", None, d0, d1, None);
        for (sid, frames) in batches.into_iter().filter(|(_, f)| !f.is_empty()) {
            let Some(i) = sensors.iter().position(|s| s.session == sid) else {
                run.fail(format!("{} frames drained for unknown session {sid}", frames.len()));
                continue;
            };
            for f in frames {
                let want = clouds[i][f.sequence as usize % sensors[i].sources].len();
                if let Some(cloud) = &f.cloud {
                    if cloud.len() != want {
                        run.fail(format!("server decoded {} of {want} points", cloud.len()));
                    }
                }
                run.ops.archived += 1;
                let time_us = sensors[i].capture_ns(f.sequence) / 1000;
                let i0 = run.clock.ns();
                let id = store.ingest(f.bytes, time_us);
                let i1 = run.clock.ns();
                ingest_ms.push((i1 - i0) as f64 * 1e-6);
                run.tracer.span("store.ingest", Some(drain_span), i0, i1, Some((sid, f.sequence)));
                match id {
                    Ok(id) => archived.push(Archived { sensor: i, seq: f.sequence, id }),
                    Err(e) => {
                        run.ops.failed += 1;
                        run.fail(format!("ingest of session {sid} seq {}: {e}", f.sequence));
                    }
                }
            }
        }
    }
    run.metrics.set("fleet.drain_ms", median(&drain_ms));
    run.metrics.set("store.ingest_ms", median(&ingest_ms));
    (store, archived)
}

/// Frame latency — due capture time to the first ack that covers the
/// frame — with its per-frame spans, generator lateness and the
/// session-layer times.
fn record_latency(run: &mut Run, sensors: &[Sensor], sent: &[Sent], logs: &[AckLog]) {
    let logs: Vec<Vec<(u64, u32)>> =
        logs.iter().map(|l| l.lock().expect("ack log lock poisoned").clone()).collect();
    let mut latency_ms = Vec::with_capacity(sent.len());
    let (mut late_ms, mut send_ms, mut ack_wait_ms) = (Vec::new(), Vec::new(), Vec::new());
    for s in sent {
        let session = sensors[s.sensor].session;
        late_ms.push((s.wake - s.due) as f64 * 1e-6);
        send_ms.push((s.send_end - s.compressed) as f64 * 1e-6);
        let Some(&(ack, _)) = logs[s.sensor].iter().find(|&&(_, next)| next > s.seq) else {
            run.fail(format!("session {session} seq {} was never acked", s.seq));
            continue;
        };
        run.ops.acked += 1;
        latency_ms.push((ack - s.due) as f64 * 1e-6);
        ack_wait_ms.push(ack.saturating_sub(s.send_end) as f64 * 1e-6);
        if run.tracer.enabled() {
            // Spans tile [due, ack]: lateness, compress, send (cut at the
            // ack if it beat `send_payload` back), ack wait.
            let send_cut = s.send_end.min(ack);
            let tiles = [
                (s.due, s.wake),
                (s.wake, s.compressed),
                (s.compressed, send_cut),
                (send_cut, ack),
            ];
            if let Err(e) = check_span_sum(s.due, ack, &tiles) {
                run.fail(format!("session {session} seq {}: {e}", s.seq));
            }
            let frame = Some((session, s.seq));
            let id = run.tracer.span("frame", None, s.due, ack, frame);
            for (name, (a, b)) in
                ["gen.late", "compress", "client.send", "net.ack_wait"].iter().zip(tiles)
            {
                run.tracer.span(name, Some(id), a, b, frame);
            }
        }
    }
    let period_ms = sensors.iter().map(|s| s.period_ns).min().unwrap_or(0) as f64 * 1e-6;
    let late_max = max(&late_ms);
    if late_max > period_ms {
        run.note(format!(
            "generator fell behind by {late_max:.1} ms, more than one period ({period_ms:.0} ms)"
        ));
    }
    run.note(format!(
        "open loop: {} sensor(s), {} frames, generator late p50 {:.3} ms, max {late_max:.3} ms",
        sensors.len(),
        sent.len(),
        median(&late_ms)
    ));
    run.latency_tails(&latency_ms);
    run.metrics.set("gen.late_ms.p50", median(&late_ms));
    run.metrics.set("gen.late_ms.max", late_max);
    run.metrics.set("client.send_ms", median(&send_ms));
    run.metrics.set("net.ack_wait_ms", median(&ack_wait_ms));
}
