//! `serve_mixed`: a two-worker daemon behind `service::serve_unix`, with
//! a fresh `ResultStore` attached so every cache miss is appended.
//!
//! One generator thread works through one socket connection. It sends
//! interactive `border` and `detection` frames on a seeded open-loop
//! schedule at a fixed offered rate: new queries spread evenly over the
//! window, and a Poisson stream of repeats of queries first sent at
//! least a few seconds earlier, just under half of the frames. At the same time it keeps
//! exactly one bulk `campaign` frame in flight, sending the next as soon
//! as the previous one is done. Interactive latency is timed from each
//! frame's due time, so a stalled generator or daemon charges every frame
//! that waited behind the stall.

use crate::rng::Rng;
use crate::stats;
use crate::workload::{self, Ctx, ServiceLayer, Timed, Traced};
use dso_core::analysis::DetectionCondition;
use dso_core::exec::CampaignConfig;
use dso_core::service::protocol::{border_result, campaign_result, detection_result};
use dso_core::service::{
    serve_unix, Daemon, ErrorCode, JobKind, JobRequest, Reply, ServeConfig, ServiceStats,
};
use dso_core::Session;
use dso_defects::{BitLineSide, Defect};
use dso_dram::column::DefectSite;
use dso_dram::design::OperatingPoint;
use dso_num::interp::logspace;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Offered rate of interactive frames, per second.
const RATE_PER_S: f64 = 2.2;
/// Share of the offered rate that repeats an earlier query. Under half,
/// so the median frame is a new detection query, tens of milliseconds:
/// a cache hit takes a few tenths of a millisecond, and on a shared
/// two-core host the median of those moved by half from run to run.
const REPEAT_SHARE: f64 = 0.45;
/// A frame only repeats queries first due at least this long before it.
const MIN_REPEAT_AGE_S: f64 = 2.0;
/// Interactive latency limit, milliseconds from the due time.
const LIMIT_MS: f64 = 1_000.0;
/// A run whose generator sends its 99th-percentile frame later than this
/// after its due time measured the generator, not the daemon: invalid.
const LATENESS_LIMIT_MS: f64 = 50.0;
/// Resistance points per bulk campaign.
const BULK_POINTS: usize = 12;
/// Daemon worker threads.
const WORKERS: usize = 2;
/// Set-ups timed in each process that times them (see `SETUP_PROCESSES`).
const SETUPS: usize = 51;
/// The generator wakes this long before a frame is due and spins.
const SPIN: Duration = Duration::from_micros(500);
/// How long after the window the generator waits for late replies.
const DRAIN_S: f64 = 30.0;

/// The seeded inputs of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// `(due time in seconds, index into queries)`, in due order.
    pub frames: Vec<(f64, usize)>,
    /// Distinct interactive queries.
    pub queries: Vec<JobKind>,
    /// Bulk campaigns, sent in order one at a time.
    pub bulk: Vec<JobKind>,
}

impl Schedule {
    /// `true` when frame `i` repeats a query an earlier frame sent.
    pub fn is_repeat(&self, i: usize) -> bool {
        self.frames[..i].iter().any(|f| f.1 == self.frames[i].1)
    }
}

/// The nominal operating point moved by up to `scale` times ±0.15 V,
/// ±3 ns and ±25 °C.
fn jittered_op(rng: &mut Rng, scale: f64) -> OperatingPoint {
    let n = OperatingPoint::nominal();
    OperatingPoint {
        vdd: n.vdd + scale * rng.range(-0.15, 0.15),
        tcyc: n.tcyc + scale * rng.range(-3e-9, 3e-9),
        temp_c: n.temp_c + scale * rng.range(-25.0, 25.0),
        ..n
    }
}

/// A new border or detection query on `defect`. Its operating point
/// moves just enough to make it a query no earlier frame asked; a wider
/// move changes how long the border search takes, and with it the tail.
fn cold_query(rng: &mut Rng, defect: Defect, border: bool) -> JobKind {
    let op = jittered_op(rng, 0.05);
    if border {
        JobKind::Border {
            defect,
            op,
            settling: 1,
            rel_tol: 0.05,
        }
    } else {
        let (lo, hi): (f64, f64) = if defect.fails_above() {
            (1e5, 1e7)
        } else {
            (1e3, 1e7)
        };
        // The target decides how many settling sequences a detection
        // tries; near the middle of the range, a site's detection costs
        // about the same in every run, and new detections set the median.
        JobKind::Detection {
            defect,
            op,
            r_target: lo * (hi / lo).powf(rng.range(0.45, 0.55)),
            max_settling: 4,
        }
    }
}

/// Every site once per query kind, on seeded sides, in seeded order.
fn cold_block(rng: &mut Rng) -> Vec<JobKind> {
    let mut block = Vec::new();
    for site in DefectSite::ALL {
        for border in [true, false] {
            let defect = Defect::new(site, [BitLineSide::True, BitLineSide::Comp][rng.below(2)]);
            block.push(cold_query(rng, defect, border));
        }
    }
    rng.shuffle(&mut block);
    block
}

/// `count` arrival times of a Poisson process on `[from, to)` that is
/// conditioned on its count: independent uniform times, sorted.
fn arrivals(rng: &mut Rng, count: usize, from: f64, to: f64) -> Vec<f64> {
    let mut times: Vec<f64> = (0..count).map(|_| rng.range(from, to)).collect();
    times.sort_by(f64::total_cmp);
    times
}

/// `count` arrival times on `[from, to)`, one uniform in each of `count`
/// equal slots, in order.
fn spread_arrivals(rng: &mut Rng, count: usize, from: f64, to: f64) -> Vec<f64> {
    let slot = (to - from) / count as f64;
    (0..count)
        .map(|k| from + slot * (k as f64 + rng.unit()))
        .collect()
}

/// The schedule `seed` generates for a window of `seconds`.
///
/// New queries and repeats arrive as two independent streams that add
/// up to [`RATE_PER_S`]. New queries come in whole blocks of
/// [`cold_block`], as many as the new stream's rate fills the window with
/// (at least one), so every run asks every site and query kind equally
/// often and only sides, operating points and arrival times change with
/// the seed: the cold queries set the tail, and a seed that drew more of
/// the slow ones would move it. For the same reason they arrive one at a
/// random time in each of as many equal slots: Poisson arrivals let a
/// seed bunch three or four border searches within a second, and the
/// queue behind such a bunch would set the tail. Repeats are a Poisson stream
/// conditioned on its count, starting once queries are
/// [`MIN_REPEAT_AGE_S`] old.
pub fn schedule(seed: u64, seconds: f64) -> Schedule {
    let mut rng = Rng::new(seed, "serve_mixed");
    let mut s = Schedule {
        frames: Vec::new(),
        queries: Vec::new(),
        bulk: Vec::new(),
    };
    let block_len = 2 * DefectSite::ALL.len();
    let new_rate = RATE_PER_S * (1.0 - REPEAT_SHARE);
    let blocks = ((seconds * new_rate / block_len as f64).round() as usize).max(1);
    for _ in 0..blocks {
        s.queries.extend(cold_block(&mut rng));
    }
    let firsts: Vec<(f64, usize)> = spread_arrivals(&mut rng, s.queries.len(), 0.0, seconds)
        .into_iter()
        .zip(0..)
        .collect();
    s.frames.clone_from(&firsts);
    let repeat_rate = RATE_PER_S * REPEAT_SHARE;
    let repeats = ((seconds - MIN_REPEAT_AGE_S).max(0.0) * repeat_rate).round() as usize;
    for t in arrivals(&mut rng, repeats, MIN_REPEAT_AGE_S, seconds) {
        let old = firsts.partition_point(|f| f.0 <= t - MIN_REPEAT_AGE_S);
        if old > 0 {
            s.frames.push((t, firsts[rng.below(old)].1));
        }
    }
    s.frames.sort_by(|a, b| a.0.total_cmp(&b.0));
    // More bulk campaigns than a window can finish.
    for k in 0..(2.0 * seconds) as usize + 8 {
        let site = DefectSite::ALL[k % DefectSite::ALL.len()];
        let defect = Defect::new(site, [BitLineSide::True, BitLineSide::Comp][rng.below(2)]);
        let (lo, hi) = defect.sweep_range();
        let lo = lo * 10f64.powf(rng.range(0.0, 0.25));
        let hi = hi / 10f64.powf(rng.range(0.0, 0.25));
        s.bulk.push(JobKind::Campaign {
            defect,
            op: jittered_op(&mut rng, 0.25),
            r_values: logspace(lo, hi, BULK_POINTS).expect("a valid log grid"),
            n_ops: 2,
        });
    }
    s
}

fn frame_line(id: String, kind: &JobKind) -> String {
    JobRequest {
        id,
        priority: kind.default_priority(),
        kind: kind.clone(),
        deadline_ms: None,
    }
    .to_line()
}

/// A daemon serving one Unix socket, plus a connected client stream.
struct Server {
    daemon: Daemon,
    client: UnixStream,
    dir: PathBuf,
}

/// Starts a daemon with a fresh store under `dir`, serves it on a socket
/// there, and connects. The acceptor thread is detached: `serve_unix`
/// only returns when its listener fails, and the process exit ends it.
fn start(dir: &Path) -> Result<Server, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let session = Session::builder()
        .design(workload::design())
        .config(CampaignConfig::with_threads(1))
        .store(dir.join("results.store"))
        .build()
        .map_err(|e| format!("session: {e}"))?;
    let daemon = Daemon::start(
        session,
        ServeConfig {
            workers: WORKERS,
            ..ServeConfig::default()
        },
    );
    let socket = dir.join("d.sock");
    let handle = daemon.handle();
    let listen_at = socket.clone();
    std::thread::spawn(move || serve_unix(&handle, &listen_at));
    let deadline = Instant::now() + Duration::from_secs(5);
    let client = loop {
        match UnixStream::connect(&socket) {
            Ok(s) => break s,
            Err(e) if Instant::now() > deadline => return Err(format!("connect: {e}")),
            Err(_) => std::thread::yield_now(),
        }
    };
    Ok(Server {
        daemon,
        client,
        dir: dir.to_path_buf(),
    })
}

/// Closes the connection gracefully (in-flight replies drain first),
/// waits until the daemon has closed its side, stops the daemon and
/// removes its files.
fn stop(server: Server) -> ServiceStats {
    let Server {
        daemon,
        mut client,
        dir,
    } = server;
    let _ = writeln!(client, r#"{{"control":"shutdown"}}"#);
    let mut rest = String::new();
    let _ = std::io::Read::read_to_string(&mut client, &mut rest);
    finish(daemon, &dir)
}

fn finish(daemon: Daemon, dir: &Path) -> ServiceStats {
    let stats = daemon.shutdown();
    let _ = std::fs::remove_dir_all(dir);
    stats
}

/// What one pass over a schedule observed.
#[derive(Debug, Default)]
struct Pass {
    /// Per interactive frame: latency from due time, `None` if it failed.
    latencies_ms: Vec<Option<f64>>,
    /// Per interactive frame: the `done` payload, when it succeeded.
    results: Vec<Option<String>>,
    /// Per interactive frame: the terminal error code, if any.
    errors: Vec<Option<ErrorCode>>,
    /// Per interactive frame: send time minus due time, milliseconds.
    lateness_ms: Vec<f64>,
    /// Per `done` interactive frame: the daemon's `wall_ms`.
    daemon_ms: Vec<f64>,
    /// Per `done` interactive frame: latency from send minus `wall_ms`.
    overhead_ms: Vec<f64>,
    /// Per finished bulk campaign: wall time from send to `done`, s.
    bulk_wall_s: Vec<f64>,
    /// Per finished bulk campaign: its `done` payload.
    bulk_results: Vec<String>,
    /// Bulk campaigns that ended in an error other than our own cancel.
    bulk_failed: u64,
    /// Points of finished bulk campaigns.
    bulk_points: f64,
    /// From the first bulk send to the last bulk `done`, seconds.
    bulk_window_s: f64,
    stats: ServiceStats,
    problems: Vec<String>,
}

/// Drives one daemon through `sched` for `window_s` seconds.
fn drive(server: Server, sched: &Schedule, window_s: f64) -> Pass {
    let n = sched.frames.len();
    let mut p = Pass {
        latencies_ms: vec![None; n],
        results: vec![None; n],
        errors: vec![None; n],
        ..Pass::default()
    };
    let mut writer = match server.client.try_clone() {
        Ok(w) => w,
        Err(e) => {
            p.problems.push(format!("clone socket: {e}"));
            p.stats = stop(server);
            return p;
        }
    };
    // Replies are stamped on arrival and parsed here, off the thread
    // that has to send frames on time.
    let reader_stream = server.client.try_clone();
    let (tx, rx) = mpsc::channel::<(Instant, Result<Reply, String>)>();
    let reader = std::thread::spawn(move || {
        let Ok(stream) = reader_stream else { return };
        for line in BufReader::new(stream).lines() {
            let Ok(line) = line else { break };
            if tx.send((Instant::now(), Reply::parse(&line))).is_err() {
                break;
            }
        }
    });

    let start = Instant::now();
    let at = |s: f64| start + Duration::from_secs_f64(s);
    let mut sent: Vec<Option<Instant>> = vec![None; n];
    let mut pending = 0usize;
    let mut next = 0usize;
    let mut bulk_k = 0usize;
    let mut bulk_sent = start;
    let mut bulk_open = true;
    let mut last_bulk_done: Option<Instant> = None;
    let send = |w: &mut UnixStream, line: String| {
        w.write_all(line.as_bytes())
            .and_then(|()| w.write_all(b"\n"))
            .is_ok()
    };
    if !send(&mut writer, frame_line("b0".into(), &sched.bulk[0])) {
        p.problems.push("send failed".into());
    }
    let hard_stop = at(window_s + DRAIN_S);
    loop {
        let mut now = Instant::now();
        if next < n && at(sched.frames[next].0) <= now + SPIN {
            // Spin out the last stretch before the due time: a sleeping
            // thread wakes late by a scheduler or hypervisor wake-up,
            // which would be charged to the daemon.
            while Instant::now() < at(sched.frames[next].0) {
                std::hint::spin_loop();
            }
            now = Instant::now();
        }
        if next < n && at(sched.frames[next].0) <= now {
            let (due, q) = sched.frames[next];
            let t = Instant::now();
            if !send(
                &mut writer,
                frame_line(format!("i{next}"), &sched.queries[q]),
            ) {
                p.problems.push("send failed".into());
                break;
            }
            sent[next] = Some(t);
            p.lateness_ms.push((t - at(due)).as_secs_f64() * 1e3);
            pending += 1;
            next += 1;
            continue;
        }
        if next == n && pending == 0 && (!bulk_open || now >= at(window_s)) {
            break;
        }
        if now >= hard_stop {
            p.problems
                .push(format!("{pending} interactive frames unanswered"));
            break;
        }
        let wake = if next < n {
            at(sched.frames[next].0) - SPIN
        } else {
            (now + Duration::from_millis(50)).min(hard_stop)
        };
        let (got, reply) = match rx.recv_timeout(wake.saturating_duration_since(now)) {
            Ok((got, Ok(reply))) => (got, reply),
            Ok((_, Err(e))) => {
                p.problems.push(format!("bad reply: {e}"));
                continue;
            }
            Err(mpsc::RecvTimeoutError::Timeout) => continue,
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                p.problems.push("daemon closed the connection".into());
                break;
            }
        };
        let id = reply.id().unwrap_or("").to_string();
        if let Some(i) = id.strip_prefix('i').and_then(|s| s.parse::<usize>().ok()) {
            let Some(send_at) = sent.get(i).copied().flatten() else {
                continue;
            };
            match reply {
                Reply::Done {
                    result, wall_ms, ..
                } => {
                    p.latencies_ms[i] = Some((got - at(sched.frames[i].0)).as_secs_f64() * 1e3);
                    p.results[i] = Some(result.to_string());
                    p.daemon_ms.push(wall_ms);
                    p.overhead_ms
                        .push((got - send_at).as_secs_f64() * 1e3 - wall_ms);
                    pending -= 1;
                }
                Reply::Error { code, .. } => {
                    p.errors[i] = Some(code);
                    pending -= 1;
                }
                _ => {}
            }
        } else if id == format!("b{bulk_k}") {
            let finished = match reply {
                Reply::Done { result, .. } => {
                    p.bulk_wall_s.push((got - bulk_sent).as_secs_f64());
                    p.bulk_points += BULK_POINTS as f64;
                    p.bulk_results.push(result.to_string());
                    last_bulk_done = Some(got);
                    true
                }
                Reply::Error { .. } => {
                    p.bulk_failed += 1;
                    true
                }
                _ => false,
            };
            if finished {
                bulk_open = false;
                if got < at(window_s) && bulk_k + 1 < sched.bulk.len() {
                    bulk_k += 1;
                    bulk_sent = Instant::now();
                    bulk_open = send(
                        &mut writer,
                        frame_line(format!("b{bulk_k}"), &sched.bulk[bulk_k]),
                    );
                }
            }
        }
    }
    if bulk_open {
        // Past the window: our own cancel, not a failure of the daemon.
        let _ = send(
            &mut writer,
            format!(r#"{{"control":"cancel","id":"b{bulk_k}"}}"#),
        );
    }
    p.bulk_window_s = last_bulk_done.map_or(0.0, |t| (t - start).as_secs_f64());
    // The reader ends at EOF, once the daemon has drained and closed.
    let _ = send(&mut writer, r#"{"control":"shutdown"}"#.to_string());
    drop(rx);
    let _ = reader.join();
    p.stats = finish(server.daemon, &server.dir);
    p
}

/// Everything before the first frame: the schedule, a fresh store, the
/// daemon, its socket and the client connection.
fn setup(ctx: &Ctx, window_s: f64, k: usize) -> Result<(Schedule, Server), String> {
    let sched = schedule(ctx.seed, window_s);
    let dir = ctx
        .out_dir
        .join(format!("serve-{}-{k}", std::process::id()));
    Ok((sched, start(&dir)?))
}

/// Byte-identity of repeated answers.
fn check_repeats(sched: &Schedule, p: &Pass, errors: &mut Vec<String>) {
    let mut first: Vec<Option<&String>> = vec![None; sched.queries.len()];
    for (i, &(_, q)) in sched.frames.iter().enumerate() {
        let Some(r) = &p.results[i] else { continue };
        match first[q] {
            None => first[q] = Some(r),
            Some(f) if f != r => errors.push(format!(
                "frame i{i} repeats query {q} but its answer differs from the first answer"
            )),
            Some(_) => {}
        }
    }
}

fn fill_timed(t: &mut Timed, sched: &Schedule, p: &Pass) {
    t.latencies_ms = p.latencies_ms.clone();
    t.unit_wall_s = p.bulk_wall_s.clone();
    t.points = p.bulk_points;
    t.points_wall_s = p.bulk_window_s;
    t.attempted = (sched.frames.len() + p.bulk_wall_s.len()) as u64 + p.bulk_failed;
    t.failed = p.latencies_ms.iter().filter(|l| l.is_none()).count() as u64 + p.bulk_failed;
    check_repeats(sched, p, &mut t.errors);
    t.errors.extend(p.problems.iter().cloned());
    if p.bulk_wall_s.is_empty() {
        t.errors
            .push("no bulk campaign finished inside the window".into());
    }
    let late = stats::sorted(&p.lateness_ms);
    let p99 = late
        .get((late.len() * 99).div_ceil(100).saturating_sub(1))
        .copied()
        .unwrap_or(0.0);
    let max = late.last().copied().unwrap_or(0.0);
    t.notes.push(format!(
        "serve_mixed: generator lateness p99 {p99:.3} ms, max {max:.3} ms (limit p99 {LATENESS_LIMIT_MS} ms)"
    ));
    if p99 > LATENESS_LIMIT_MS {
        t.errors.push(format!(
            "invalid run: generator p99 lateness {p99:.1} ms > {LATENESS_LIMIT_MS} ms"
        ));
    }
    let repeats = (0..sched.frames.len())
        .filter(|&i| sched.is_repeat(i))
        .count();
    let refused = p
        .errors
        .iter()
        .filter(|e| **e == Some(ErrorCode::QueueFull))
        .count();
    t.notes.push(format!(
        "serve_mixed: {} interactive frames ({repeats} repeats, {refused} refused) at {RATE_PER_S}/s, \
         {} bulk campaigns of {BULK_POINTS} points, {} preemptions",
        sched.frames.len(),
        p.bulk_wall_s.len(),
        p.stats.preemptions
    ));
}

/// Times [`SETUPS`] set-ups into `t`, stopping each server but the last.
fn time_setups(ctx: &Ctx, t: &mut Timed) -> Option<(Schedule, Server)> {
    let mut ready = None;
    for k in 0..SETUPS {
        let t0 = Instant::now();
        let built = setup(ctx, ctx.seconds, k);
        t.setup_s.push(t0.elapsed().as_secs_f64());
        if let Some(Ok((_, previous))) = ready.replace(built) {
            stop(previous);
        }
    }
    match ready? {
        Ok(x) => Some(x),
        Err(e) => {
            t.errors.push(e);
            None
        }
    }
}

/// Only the set-ups of a timed run.
pub fn setups(ctx: &Ctx) -> Timed {
    let mut t = Timed::default();
    if let Some((_, server)) = time_setups(ctx, &mut t) {
        stop(server);
    }
    t
}

/// The timed run.
pub fn timed(ctx: &Ctx) -> Timed {
    let mut t = Timed {
        limit_ms: LIMIT_MS,
        ..Timed::default()
    };
    let Some((sched, server)) = time_setups(ctx, &mut t) else {
        return t;
    };
    let p = drive(server, &sched, ctx.seconds);
    fill_timed(&mut t, &sched, &p);
    t
}

/// Recomputes a sample of the daemon's answers with direct `Session`
/// calls and checks they are byte-identical.
fn check_direct(sched: &Schedule, p: &Pass, errors: &mut Vec<String>) {
    let session = Session::builder()
        .design(workload::design())
        .config(CampaignConfig::with_threads(1))
        .build()
        .expect("an in-memory session");
    let mut checked = [0usize; 2];
    for (i, &(_, q)) in sched.frames.iter().enumerate() {
        let Some(answer) = &p.results[i] else {
            continue;
        };
        let direct = match &sched.queries[q] {
            JobKind::Border {
                defect,
                op,
                settling,
                rel_tol,
            } if checked[0] < 2 => {
                checked[0] += 1;
                let cond = DetectionCondition::default_for(defect, *settling);
                session
                    .border(defect, &cond, op, *rel_tol)
                    .map(|b| border_result(&b))
            }
            JobKind::Detection {
                defect,
                op,
                r_target,
                max_settling,
            } if checked[1] < 2 => {
                checked[1] += 1;
                session
                    .detect(defect, *r_target, op, *max_settling)
                    .map(|d| detection_result(&d))
            }
            _ => continue,
        };
        match direct {
            Ok(json) if json.to_string() == *answer => {}
            Ok(_) => errors.push(format!(
                "frame i{i}: daemon answer differs from a direct call"
            )),
            Err(e) => errors.push(format!("frame i{i}: direct call failed: {e}")),
        }
    }
    if let (
        Some(answer),
        JobKind::Campaign {
            defect,
            op,
            r_values,
            n_ops,
        },
    ) = (p.bulk_results.first(), &sched.bulk[0])
    {
        match session.planes(defect, op, r_values, *n_ops) {
            Ok(c) if campaign_result(&c).to_string() == *answer => {}
            Ok(_) => errors.push("bulk b0: daemon answer differs from a direct call".into()),
            Err(e) => errors.push(format!("bulk b0: direct call failed: {e}")),
        }
    }
}

/// The traced run: the first half of the window untraced on one daemon,
/// the same schedule traced on a fresh daemon, then a sample of answers
/// checked against direct calls.
pub fn traced(ctx: &Ctx) -> Traced {
    let window = ctx.seconds / 2.0;
    let mut out = Traced {
        threads: 1,
        ..Traced::default()
    };
    let untraced = match setup(ctx, window, 0) {
        Ok((sched, server)) => (drive(server, &sched, window), sched),
        Err(e) => {
            out.errors.push(e);
            return out;
        }
    };
    out.untraced_wall_s = stats::median(&untraced.0.bulk_wall_s);
    let run = workload::traced(ctx, "serve_mixed", || {
        setup(ctx, window, 1).map(|(sched, server)| (drive(server, &sched, window), sched))
    });
    match run {
        Ok((Ok((p, sched)), _, fold, snapshot)) => {
            let mut t = Timed::default();
            fill_timed(&mut t, &sched, &p);
            out.traced_wall_s = stats::median(&p.bulk_wall_s);
            out.attempted = t.attempted;
            out.failed = t.failed;
            out.notes = t.notes;
            out.errors.extend(t.errors);
            check_direct(&sched, &p, &mut out.errors);
            out.service = Some(ServiceLayer {
                daemon_ms: p.daemon_ms.clone(),
                client_overhead_ms: p.overhead_ms.clone(),
                preemptions: p.stats.preemptions,
                queue_peak: p.stats.queue_peak as u64,
                rejected: p.stats.rejected,
            });
            out.fold = fold;
            out.snapshot = Some(snapshot);
        }
        Ok((Err(e), ..)) | Err(e) => out.errors.push(e),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        assert_eq!(schedule(2, 20.0), schedule(2, 20.0));
        assert_ne!(schedule(2, 20.0), schedule(3, 20.0));
    }

    #[test]
    fn schedule_is_open_loop_poisson_with_aged_repeats() {
        let s = schedule(4, 200.0);
        let n = s.frames.len() as f64;
        // 440 expected arrivals; the counts are fixed near that.
        assert!((n - 440.0).abs() < 5.0 * 440f64.sqrt(), "{n} frames");
        assert!(s.frames.windows(2).all(|w| w[0].0 <= w[1].0));
        let repeats = (0..s.frames.len()).filter(|&i| s.is_repeat(i)).count() as f64;
        assert!(
            (0.4..0.5).contains(&(repeats / n)),
            "repeat share {}",
            repeats / n
        );
        // New queries come in whole blocks: every site, both kinds, the
        // same number of times in every run of the same length.
        assert_eq!(s.queries.len(), 17 * 14);
        for site in DefectSite::ALL {
            let on_site = |border: bool| {
                s.queries
                    .iter()
                    .filter(|q| match q {
                        JobKind::Border { defect, .. } => border && defect.site() == site,
                        JobKind::Detection { defect, .. } => !border && defect.site() == site,
                        _ => false,
                    })
                    .count()
            };
            assert_eq!((on_site(true), on_site(false)), (17, 17), "{site:?}");
        }
        for seed in 5..10 {
            assert_eq!(schedule(seed, 30.0).queries.len(), 3 * 14);
        }
        // One new query in each equal slot of the window.
        let slot = 200.0 / s.queries.len() as f64;
        for (i, &(due, q)) in s.frames.iter().enumerate() {
            if !s.is_repeat(i) {
                assert_eq!((due / slot) as usize, q, "frame {i}");
            }
        }
        for (i, &(due, q)) in s.frames.iter().enumerate() {
            if s.is_repeat(i) {
                let first = s.frames.iter().find(|f| f.1 == q).expect("first send");
                assert!(due - first.0 >= MIN_REPEAT_AGE_S);
            }
        }
        assert!(s.bulk.len() >= 400);
    }
}
