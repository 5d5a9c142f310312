//! The `serve` workload: an in-process `Server` over a frozen
//! `LabConfig::default()` snapshot, loaded by a closed loop of two
//! pipelined loopback connections from this process.

use crate::batch::{open_lab, WORKERS};
use crate::measure::{self, timed};
use crate::report::{Metrics, Outcome};
use crate::Ctx;
use kcb_core::lab::LabConfig;
use kcb_core::snapshot::{BertWeights, Snapshot, SnapshotSpec};
use kcb_ontology::Relation;
use kcb_serve::engine::{self, EngineConfig};
use kcb_serve::protocol::{self, Op, Request};
use kcb_serve::{Server, ServerConfig};
use kcb_util::rng::Rng;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client connections (one client thread each).
const CONNECTIONS: usize = 2;
/// Requests each connection keeps in flight: one window is written in a
/// single syscall, then its replies are read back.
const PIPELINE: usize = 16;
/// Distinct requests per connection; the stream cycles through them, so
/// every reply has a serial reference computed once before the load. A
/// multiple of 100, so [`MIX`] divides it exactly, and of [`PIPELINE`].
const POOL: usize = 4000;
/// Server set-ups timed per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 15;
/// `wall_s` and `cpu_s` are reported per this many replies.
const BLOCK: f64 = 10_000.0;
/// How often the load phase samples (time, CPU, replies).
const SAMPLE_EVERY: Duration = Duration::from_millis(250);

/// The request mix in percent: `bert`, `nn` (f32, k=10), `classify`,
/// `embed`. Every serve layer gets a visible share; no int8. Each
/// connection's pool holds exactly these shares, every kind spread evenly
/// through it from a seeded phase, so the seed changes which requests
/// arrive, never how much work they are or how it bunches. At ≈ 570 µs a
/// `bert` request is half the load. A mix rolled per request would move a
/// pool's `bert` count by ±11% from seed to seed; a shuffled pool puts
/// two or three `bert`s into a few pipelined windows, and how many such
/// windows a seed drew moved p99 by 1.4× (1581–2250 µs over ten seeds
/// while p50 stayed within 352–419 µs).
const MIX: [(&str, usize); 4] = [("bert", 2), ("nn", 8), ("classify", 60), ("embed", 30)];

/// `LabConfig::default()` reseeded with the workload seed.
pub fn serve_config(seed: u64) -> LabConfig {
    let mut cfg = LabConfig::default();
    cfg.reseed(seed);
    cfg.rf.n_threads = WORKERS;
    cfg
}

/// Untimed preparation (run in a child process): trains exactly the
/// providers `Snapshot::freeze` needs into an empty store.
pub fn prep_serve(seed: u64, dir: &Path) {
    let lab = open_lab(&serve_config(seed), &dir.join("store"));
    drop(Snapshot::freeze(&lab, SnapshotSpec::default()));
    lab.save_checkpoints();
}

/// Whether one served reply fails its check: it differs from the serial
/// reference, or it is an `error` / `overloaded` reply.
pub fn reply_failed(got: &str, want: &str) -> bool {
    got != want || got.contains("\"ok\":false")
}

/// The kinds of one connection's pool in stream order: exactly the
/// [`MIX`] shares, kind k's j-th request at (j + phase_k) / count_k of
/// the pool, with a seeded phase per kind.
fn pool_kinds(rng: &mut Rng) -> Vec<&'static str> {
    let mut keyed: Vec<(f64, &'static str)> = Vec::with_capacity(POOL);
    for &(name, pct) in &MIX {
        let (count, phase) = (POOL * pct / 100, rng.f64());
        keyed.extend((0..count).map(|j| ((j as f64 + phase) / count as f64, name)));
    }
    keyed.sort_by(|a, b| a.0.total_cmp(&b.0));
    keyed.into_iter().map(|(_, name)| name).collect()
}

/// The seeded request stream of one connection.
fn request_pool(snap: &Snapshot, seed: u64, conn: usize) -> Vec<Request> {
    let mut rng = Rng::seed_stream(seed, 0x5e7e_0000 + conn as u64);
    let vocab = snap.table().vocab();
    let n_ent = snap.n_entities();
    pool_kinds(&mut rng)
        .into_iter()
        .enumerate()
        .map(|(i, kind)| {
            let id = ((conn as u64 + 1) << 32) | i as u64;
            let triple = |rng: &mut Rng| {
                (
                    rng.below(n_ent) as u32,
                    rng.below(Relation::ALL.len()) as u8,
                    rng.below(n_ent) as u32,
                )
            };
            let op = match kind {
                "bert" => {
                    let (s, r, o) = triple(&mut rng);
                    Op::Bert { s, r, o }
                }
                "nn" => {
                    let token = vocab.token(rng.below(vocab.len()) as u32).to_string();
                    Op::Nn { token, k: 10, int8: false }
                }
                "classify" => {
                    let (s, r, o) = triple(&mut rng);
                    Op::Classify { s, r, o }
                }
                _ => Op::Embed { token: vocab.token(rng.below(vocab.len()) as u32).to_string() },
            };
            Request { id, op }
        })
        .collect()
}

/// One connection's stream, pre-rendered, with its serial references.
struct Stream {
    /// Wire bytes of each window of [`PIPELINE`] requests.
    windows: Vec<Vec<u8>>,
    /// `answer_serial` reply per request, in stream order.
    want: Vec<String>,
    /// Wire lines, for the parse-stage replay.
    lines: Vec<String>,
}

/// Serial-reference replay of every stream: the expected replies plus
/// mean µs per operation kind.
fn prepare(snap: &Snapshot, seed: u64) -> (Vec<Stream>, [(f64, usize); 4]) {
    let bert = snap.bert().map(BertWeights::instantiate);
    let mut per_op = [(0.0f64, 0usize); 4];
    let streams = (0..CONNECTIONS)
        .map(|c| {
            let reqs = request_pool(snap, seed, c);
            let mut want = Vec::with_capacity(reqs.len());
            for req in &reqs {
                let t0 = Instant::now();
                let reply = engine::answer_serial(snap, bert.as_ref(), req);
                let us = t0.elapsed().as_secs_f64() * 1e6;
                let k = MIX.iter().position(|(n, _)| *n == req.op.name()).expect("op in mix");
                per_op[k].0 += us;
                per_op[k].1 += 1;
                want.push(reply);
            }
            let lines: Vec<String> = reqs.iter().map(protocol::render_request).collect();
            let windows = lines
                .chunks(PIPELINE)
                .map(|w| w.iter().flat_map(|l| l.bytes().chain(*b"\n")).collect())
                .collect();
            Stream { windows, want, lines }
        })
        .collect();
    (streams, per_op)
}

/// What one client connection saw.
#[derive(Default)]
struct ClientLog {
    /// Window-write → reply-read latency per reply, ns (u32: 4 bytes a
    /// reply of the benchmark's own memory, saturating at 4.3 s).
    lat_ns: Vec<u32>,
    replies: u64,
    /// Replies never received (the connection closed).
    missing: u64,
    failed: u64,
}

fn client(addr: SocketAddr, s: &Stream, until: Instant, replies: &AtomicU64) -> ClientLog {
    let stream = TcpStream::connect(addr).expect("connect to the benchmark server");
    stream.set_nodelay(true).expect("TCP_NODELAY");
    let mut reader = BufReader::new(stream.try_clone().expect("clone socket"));
    let mut writer = stream;
    let mut log = ClientLog { lat_ns: Vec::with_capacity(1 << 20), ..ClientLog::default() };
    let mut line = String::new();
    let mut w = 0usize;
    while Instant::now() < until {
        let wi = w % s.windows.len();
        let t0 = Instant::now();
        writer.write_all(&s.windows[wi]).expect("write request window");
        let first = wi * PIPELINE;
        for want in &s.want[first..(first + PIPELINE).min(s.want.len())] {
            line.clear();
            if reader.read_line(&mut line).expect("read reply") == 0 {
                // Connection closed: every reply still owed is missing.
                log.missing += 1;
                log.failed += 1;
                continue;
            }
            log.lat_ns.push(u32::try_from(t0.elapsed().as_nanos()).unwrap_or(u32::MAX));
            log.replies += 1;
            if reply_failed(line.trim_end_matches('\n'), want) {
                log.failed += 1;
            }
        }
        replies.fetch_add(PIPELINE as u64, Ordering::Relaxed);
        w += 1;
    }
    log
}

/// The measured closed-loop phase.
struct Load {
    replies: u64,
    missing: u64,
    failed: u64,
    wall_s: f64,
    cpu_s: f64,
    /// Sorted latencies, ns.
    lat_ns: Vec<u32>,
    /// `(wall, cpu)` seconds per [`BLOCK`] replies, per sample interval.
    blocks: Vec<(f64, f64)>,
    peak_rss_mb: f64,
}

fn load(addr: SocketAddr, streams: &[Stream], seconds: f64) -> Load {
    let replies = AtomicU64::new(0);
    let (c0, t0) = (measure::process_cpu_s(), Instant::now());
    let until = t0 + Duration::from_secs_f64(seconds);
    let (logs, blocks) = std::thread::scope(|sc| {
        let handles: Vec<_> =
            streams.iter().map(|s| sc.spawn(|| client(addr, s, until, &replies))).collect();
        let mut blocks = Vec::new();
        let mut prev = (0.0, c0, 0u64);
        while Instant::now() < until {
            std::thread::sleep(SAMPLE_EVERY.min(until.saturating_duration_since(Instant::now())));
            let now = (
                t0.elapsed().as_secs_f64(),
                measure::process_cpu_s(),
                replies.load(Ordering::Relaxed),
            );
            let dn = (now.2 - prev.2) as f64;
            if dn > 0.0 {
                blocks.push(((now.0 - prev.0) / dn * BLOCK, (now.1 - prev.1) / dn * BLOCK));
            }
            prev = now;
        }
        let logs: Vec<ClientLog> =
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect();
        (logs, blocks)
    });
    let (wall_s, cpu_s) = (t0.elapsed().as_secs_f64(), measure::process_cpu_s() - c0);
    // Read before the samples are merged into one more copy.
    let peak_rss_mb = measure::peak_rss_mb();
    let mut lat_ns: Vec<u32> = logs.iter().flat_map(|l| l.lat_ns.iter().copied()).collect();
    lat_ns.sort_unstable();
    Load {
        replies: logs.iter().map(|l| l.replies).sum(),
        missing: logs.iter().map(|l| l.missing).sum(),
        failed: logs.iter().map(|l| l.failed).sum(),
        wall_s,
        cpu_s,
        lat_ns,
        blocks,
        peak_rss_mb,
    }
}

/// One server set-up: warm lab load, freeze, start, first `ping` reply.
struct Setup {
    server: Server,
    addr: SocketAddr,
    snap: Arc<Snapshot>,
    total_s: f64,
    lab_s: f64,
    freeze_s: f64,
    server_s: f64,
    ckpt_hits: usize,
    ckpt_bytes_read: u64,
}

fn setup(cfg: &LabConfig, store_dir: &Path) -> Setup {
    let t0 = Instant::now();
    let (lab, lab_span) = timed(|| open_lab(cfg, store_dir));
    let (snap, freeze) = timed(|| Arc::new(Snapshot::freeze(&lab, SnapshotSpec::default())));
    let events = lab.checkpoint_store().map(|s| s.events()).unwrap_or_default();
    drop(lab);
    let ((server, addr), start) = timed(|| {
        let server = Server::start(
            Arc::clone(&snap),
            &ServerConfig {
                tcp: Some("127.0.0.1:0".to_string()),
                socket: None,
                engine: EngineConfig {
                    workers: WORKERS,
                    queue_cap: 4096,
                    batch_max: 32,
                    flight: Default::default(),
                },
            },
        )
        .expect("start the benchmark server");
        let addr = server.tcp_addr.expect("tcp listener bound");
        let mut conn = TcpStream::connect(addr).expect("connect for ping");
        conn.write_all(b"{\"id\":0,\"op\":\"ping\"}\n").expect("write ping");
        let mut pong = String::new();
        BufReader::new(conn).read_line(&mut pong).expect("read pong");
        assert!(pong.contains("\"ok\":true"), "unexpected ping reply: {pong}");
        (server, addr)
    });
    Setup {
        server,
        addr,
        snap,
        total_s: t0.elapsed().as_secs_f64(),
        lab_s: lab_span.wall_s,
        freeze_s: freeze.wall_s,
        server_s: start.wall_s,
        ckpt_hits: events.iter().filter(|e| e.hit).count(),
        ckpt_bytes_read: events.iter().filter(|e| e.hit).map(|e| e.bytes).sum(),
    }
}

fn stop(server: Server, addr: SocketAddr) {
    server.stop();
    // An empty connection wakes the accept loop between polls.
    let _ = TcpStream::connect(addr);
    server.wait();
}

/// Mean µs of `protocol::parse_request` over every stream line, repeated
/// until at least 0.2 s of parsing was timed.
fn parse_us(streams: &[Stream]) -> f64 {
    let (mut n, t0) = (0usize, Instant::now());
    while n == 0 || t0.elapsed() < Duration::from_millis(200) {
        for line in streams.iter().flat_map(|s| s.lines.iter()) {
            std::hint::black_box(protocol::parse_request(std::hint::black_box(line)).is_ok());
            n += 1;
        }
    }
    t0.elapsed().as_secs_f64() * 1e6 / n as f64
}

/// `serve`: see the module docs.
pub fn serve(ctx: &Ctx) -> Outcome {
    let cfg = serve_config(ctx.seed);
    let prep = ctx.work.join("prep");
    crate::batch::spawn_prep("serve", ctx.seed, &prep);
    let store_dir = prep.join("store");

    // Only one server runs at a time: every set-up but the last is
    // stopped once timed.
    let mut timings: Vec<[f64; 4]> = Vec::with_capacity(SETUP_REPEATS);
    let mut live = None;
    for i in 0..SETUP_REPEATS {
        let s = setup(&cfg, &store_dir);
        timings.push([s.total_s, s.lab_s, s.freeze_s, s.server_s]);
        if i + 1 < SETUP_REPEATS {
            stop(s.server, s.addr);
        } else {
            live = Some(s);
        }
    }
    let live = live.expect("a set-up");
    let med = |k: usize| measure::median(&timings.iter().map(|t| t[k]).collect::<Vec<_>>());
    let setup_s = med(0);
    let mut layers = Metrics::new();
    layers.insert("setup.lab_s", med(1));
    layers.insert("setup.freeze_s", med(2));
    layers.insert("setup.server_s", med(3));
    layers.insert("ckpt.hits", live.ckpt_hits as f64);
    layers.insert("ckpt.bytes_read", live.ckpt_bytes_read as f64);

    let (streams, per_op) = prepare(&live.snap, ctx.seed);
    let serial_us: Vec<f64> =
        per_op.iter().map(|&(us, n)| if n == 0 { 0.0 } else { us / n as f64 }).collect();
    let total_ops: usize = per_op.iter().map(|p| p.1).sum();
    let weighted_serial_us: f64 =
        per_op.iter().zip(&serial_us).map(|(&(_, n), &us)| us * n as f64).sum::<f64>()
            / total_ops as f64;

    if ctx.trace {
        kcb_obs::reset();
        kcb_obs::set_enabled(true);
    }
    let run = load(live.addr, &streams, ctx.seconds);
    if ctx.trace {
        drop(kcb_obs::drain());
        kcb_obs::set_enabled(false);
    }
    let metrics = live.server.metrics();
    let q = metrics.queue_wait_us.snapshot();
    let b = metrics.batch_service_us.snapshot();
    layers.insert("engine.queue_wait_p50_us", q.percentile(50.0) as f64);
    layers.insert("engine.queue_wait_p99_us", q.percentile(99.0) as f64);
    layers.insert("engine.batch_service_p50_us", b.percentile(50.0) as f64);
    layers.insert("engine.batch_service_p99_us", b.percentile(99.0) as f64);
    layers.insert("engine.batch_size_mean", metrics.batch_size.snapshot().mean());
    layers.insert("engine.e2e_p99_us", metrics.e2e_us.snapshot().percentile(99.0) as f64);
    layers.insert("engine.served", metrics.served.get() as f64);
    layers.insert("engine.shed", metrics.shed.get() as f64);
    layers.insert("engine.errors", metrics.errors.get() as f64);
    stop(live.server, live.addr);

    layers.insert("protocol.parse_us", parse_us(&streams));
    for (&(name, _), &us) in MIX.iter().zip(&serial_us) {
        let key = match name {
            "bert" => "serial.bert_us",
            "nn" => "serial.nn_us",
            "classify" => "serial.classify_us",
            _ => "serial.embed_us",
        };
        layers.insert(key, us);
    }
    let scan_bytes = (live.snap.table().vocab().len() * live.snap.dim() * 4) as f64;
    let nn_us = serial_us[MIX.iter().position(|m| m.0 == "nn").expect("nn in mix")];
    layers.insert("kernel.nn_scan_gbs", if nn_us > 0.0 { scan_bytes / (nn_us * 1e3) } else { 0.0 });
    let served = run.replies.max(1) as f64;
    layers.insert("engine.overhead_us", run.cpu_s * 1e6 / served - weighted_serial_us);

    let ns_to_us = |p: f64| measure::nearest_rank(&run.lat_ns, p).unwrap_or(0) as f64 / 1e3;
    let mut e2e = Metrics::new();
    e2e.insert("setup_s", setup_s);
    e2e.insert("wall_s", measure::median(&run.blocks.iter().map(|b| b.0).collect::<Vec<_>>()));
    e2e.insert("cpu_s", measure::median(&run.blocks.iter().map(|b| b.1).collect::<Vec<_>>()));
    e2e.insert("peak_rss_mb", run.peak_rss_mb);
    // The same intervals, as rates: a stall of the host in one interval
    // moves one sample, not the run's mean.
    e2e.insert("qps", measure::median(&run.blocks.iter().map(|b| BLOCK / b.0).collect::<Vec<_>>()));
    e2e.insert("p50_us", ns_to_us(50.0));
    e2e.insert("p99_us", ns_to_us(99.0));

    let mut out = Outcome { e2e, layers, ..Outcome::default() };
    out.check(run.replies + run.missing, run.failed);
    out.context.push(("unit_of_work", serde_json::json!("10000 served replies")));
    out.context.push(("requests", serde_json::json!(run.replies + run.missing)));
    out.context.push(("latency_samples", serde_json::json!(run.lat_ns.len())));
    out.context.push(("connections", serde_json::json!(CONNECTIONS)));
    out.context.push(("pipeline", serde_json::json!(PIPELINE)));
    out.context.push(("distinct_requests", serde_json::json!(CONNECTIONS * POOL)));
    out.context.push(("setup_samples", serde_json::json!(SETUP_REPEATS)));
    out.context.push((
        "mix_percent",
        serde_json::Value::Object(
            MIX.iter().map(|&(n, p)| (n.to_string(), serde_json::json!(p))).collect(),
        ),
    ));
    out.context.push(("load_cpu_s", serde_json::json!(run.cpu_s)));
    out.context.push(("mean_qps", serde_json::json!(run.replies as f64 / run.wall_s)));
    out.context.push(("qps_intervals", serde_json::json!(run.blocks.len())));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_altered_serial_reply_fails_the_request() {
        let want = r#"{"id":7,"ok":true,"p":0.25}"#;
        assert!(!reply_failed(want, want));
        assert!(reply_failed(r#"{"id":7,"ok":true,"p":0.26}"#, want));
        let shed = protocol::render_overloaded(7);
        assert!(reply_failed(&shed, &shed), "an overloaded reply fails even if expected");
        assert!(reply_failed("", want), "a missing reply fails");
    }

    #[test]
    fn mix_sums_to_one_hundred_and_divides_the_pool() {
        assert_eq!(MIX.iter().map(|m| m.1).sum::<usize>(), 100);
        assert_eq!(POOL % 100, 0);
        assert_eq!(POOL % PIPELINE, 0);
    }

    #[test]
    fn pools_hold_the_exact_mix_with_at_most_one_bert_a_window() {
        for seed in [1, 2, 42] {
            let kinds = pool_kinds(&mut Rng::seed_stream(seed, 0));
            for &(name, pct) in &MIX {
                assert_eq!(kinds.iter().filter(|k| **k == name).count(), POOL * pct / 100);
            }
            for window in kinds.chunks(PIPELINE) {
                assert!(window.iter().filter(|k| **k == "bert").count() <= 1);
            }
        }
    }
}
