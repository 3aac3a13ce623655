//! Closed-loop load generator for the `minshare serve` daemon.
//!
//! ```text
//! perfbench-loadgen --daemon PATH --workdir DIR --workload NAME --seed N \
//!     --seconds S --trace 0|1 [--trace-out FILE]
//! ```
//!
//! Starts a fresh daemon on a generated values file, drives it over
//! loopback TCP with the same public client functions `minshare client`
//! calls, checks every answer against a plaintext oracle, and prints a
//! report whose last line is one JSON object: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. Exits 1 if
//! any session failed or answered wrongly.

mod layers;
mod probe;
mod stats;
mod workload;

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use minshare::prelude::*;
use minshare_costmodel::reconcile::{party_ce_ops, Party};
use minshare_costmodel::section6::Protocol;
use minshare_net::{MuxClient, MuxConfig, Transport};
use rand::rngs::StdRng;
use rand::SeedableRng;

use probe::{now_ns, Daemon, Spans, TimedTransport, WireRecord, WorkDir};
use workload::{Answer, Job, Tenant, Workload};

/// Daemon start-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 25;

struct Args {
    daemon: PathBuf,
    workdir: PathBuf,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut daemon, mut workdir, mut workload) = (None, None, None);
    let (mut seed, mut seconds, mut trace, mut trace_out) = (1u64, 10u64, false, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--daemon" => daemon = Some(PathBuf::from(value()?)),
            "--workdir" => workdir = Some(PathBuf::from(value()?)),
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(Args {
        daemon: daemon.ok_or("--daemon is required")?,
        workdir: workdir.ok_or("--workdir is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        trace_out,
    })
}

fn main() {
    match parse_args().and_then(|args| run(&args)) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench-loadgen: {e}");
            std::process::exit(2);
        }
    }
}

/// Per-connection client state: what `minshare client` builds per run.
struct ClientCtx<'a> {
    group: &'a QrGroup,
    pool: EncryptPool,
    spill_dir: PathBuf,
}

/// Runs the client side of `job` over `t`, exactly as `minshare client`
/// does. Returns the answer, the client's `Ce` count and payload bytes.
fn exec<T: Transport>(
    t: T,
    job: Job,
    tenant: &Tenant,
    set: &[Vec<u8>],
    ctx: &ClientCtx<'_>,
    rng: &mut StdRng,
) -> Result<(Answer, u64, u64), ProtocolError> {
    let cfg = ShardConfig {
        shards: job.shards,
        mem_budget: tenant
            .mem_budget
            .unwrap_or_else(|| ShardConfig::default().mem_budget),
        spill_dir: Some(ctx.spill_dir.clone()),
        ..ShardConfig::default()
    };
    let (g, pool, config) = (ctx.group, &ctx.pool, PipelineConfig::default());
    let (answer, ops, traffic) = match job.kind {
        ProtocolKind::Intersection => {
            let (o, tr) = run_client_intersection_sharded(t, g, set, rng, pool, config, &cfg)?;
            let answer = Answer::Intersection {
                values: o.intersection,
                peer_set_size: o.peer_set_size,
            };
            (answer, o.ops, tr)
        }
        ProtocolKind::Equijoin => {
            let (o, tr) = run_client_equijoin_sharded(
                t,
                g,
                set,
                rng,
                pool,
                config,
                workload::RECORD_LEN,
                &cfg,
            )?;
            let answer = Answer::Equijoin {
                matches: o.matches,
                peer_set_size: o.peer_set_size,
            };
            (answer, o.ops, tr)
        }
        ProtocolKind::IntersectionSize => {
            let (o, tr) = run_client_intersection_size_sharded(t, g, set, rng, pool, config, &cfg)?;
            let answer = Answer::IntersectionSize {
                size: o.intersection_size,
                peer_set_size: o.peer_set_size,
            };
            (answer, o.ops, tr)
        }
        ProtocolKind::EquijoinSize => {
            let (o, tr) = run_client_equijoin_size_sharded(t, g, set, rng, pool, config, &cfg)?;
            let answer = Answer::EquijoinSize {
                join_size: o.join_size,
                peer_multiset_size: o.peer_multiset_size,
                peer_duplicates: o.peer_duplicate_distribution,
                class_intersections: o.class_intersections,
            };
            (answer, o.ops, tr)
        }
    };
    Ok((
        answer,
        ops.total_ce(),
        traffic.bytes_sent + traffic.bytes_received,
    ))
}

fn cost_protocol(kind: ProtocolKind) -> Protocol {
    match kind {
        ProtocolKind::Intersection => Protocol::Intersection,
        ProtocolKind::Equijoin => Protocol::Equijoin,
        ProtocolKind::IntersectionSize => Protocol::IntersectionSize,
        ProtocolKind::EquijoinSize => Protocol::EquijoinSize,
    }
}

/// One attempted session.
struct Outcome {
    tenant: usize,
    failure: Option<String>,
    start_ns: u64,
    end_ns: u64,
    open_ns: u64,
    elems: u64,
    ce: u64,
    ce_pred: u64,
    bytes: u64,
    /// Set on traced sessions only.
    wire: Option<WireRecord>,
    /// Client compute: time inside the client call outside any frame
    /// span (traced only).
    self_ns: u64,
}

impl Outcome {
    fn wall_ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Expected answer, §6.1 client `Ce` and element count of every
/// (job, set) pair of a tenant.
type Expected = Vec<Vec<(Answer, u64, u64)>>;

fn expected(w: &Workload, t: &Tenant) -> Expected {
    t.jobs
        .iter()
        .map(|job| {
            t.sets
                .iter()
                .map(|set| {
                    let (vs, vr) = workload::cost_sizes(job.kind, &w.daemon, set);
                    (
                        workload::oracle(job.kind, &w.daemon, set),
                        party_ce_ops(cost_protocol(job.kind), Party::Receiver, vs, vr),
                        workload::elements(&w.daemon, set),
                    )
                })
                .collect()
        })
        .collect()
}

/// The closed loop of one connection. Tracing alternates by round so the
/// traced and untraced sessions see the same mix.
#[allow(clippy::too_many_arguments)]
fn drive(
    index: usize,
    tenant: &Tenant,
    expect: &Expected,
    client: &mut MuxClient,
    ctx: &ClientCtx<'_>,
    deadline: Instant,
    primaries: &AtomicUsize,
    trace: bool,
    seed: u64,
) -> (Vec<Outcome>, Spans) {
    let mut outcomes = Vec::new();
    let mut spans = Spans::default();
    let mut n = 0usize;
    loop {
        let done = Instant::now() >= deadline;
        if done && (!tenant.companion || primaries.load(Ordering::SeqCst) == 0) {
            break;
        }
        let job = tenant.job(n);
        let (answer, ce_pred, elems) = &expect[n % tenant.jobs.len()][job.set];
        let set = &tenant.sets[job.set];
        // Alternate rounds, shifted every pass over the client sets, so
        // each set runs both traced and untraced.
        let round = n / tenant.jobs.len();
        let traced = trace && (round + round / tenant.sets.len()).is_multiple_of(2);
        let mut rng = StdRng::seed_from_u64(seed ^ ((index as u64) << 48) ^ n as u64);
        n += 1;

        let start_ns = now_ns();
        let opened = client.open_session(&SessionRequest::new(job.kind).encode());
        let open_end = now_ns();
        let mut o = Outcome {
            tenant: index,
            failure: None,
            start_ns,
            end_ns: open_end,
            open_ns: open_end - start_ns,
            elems: *elems,
            ce: 0,
            ce_pred: *ce_pred,
            bytes: 0,
            wire: None,
            self_ns: 0,
        };
        if o.open_ns >= 1_000_000_000 {
            eprintln!(
                "slow open: {} session {n} waited {:.1} ms for ACCEPT",
                tenant.class,
                o.open_ns as f64 / 1e6
            );
        }
        let session = match opened {
            Ok(s) => s,
            Err(e) => {
                o.failure = Some(format!("open: {e}"));
                let fatal = matches!(e, minshare_net::NetError::Closed);
                outcomes.push(o);
                if fatal {
                    break;
                }
                continue;
            }
        };
        let sid = u64::from(session.session_id());
        let (result, root) = if traced {
            let root = spans.push("session", sid, None, start_ns, 0);
            spans.push("net.server.open", sid, Some(root), start_ns, open_end);
            let first_child = spans.list.len();
            let mut wire = WireRecord::default();
            let r = exec(
                TimedTransport {
                    inner: session,
                    wire: &mut wire,
                    spans: &mut spans,
                    root,
                    session: sid,
                },
                job,
                tenant,
                set,
                ctx,
                &mut rng,
            );
            // Client compute: the time inside the client call not covered
            // by a frame span.
            let exec_end = now_ns();
            let mut cursor = open_end;
            for s in &spans.list[first_child..] {
                o.self_ns += s.start_ns.saturating_sub(cursor);
                cursor = cursor.max(s.end_ns);
            }
            o.self_ns += exec_end.saturating_sub(cursor);
            o.wire = Some(wire);
            (r, Some(root))
        } else {
            (exec(session, job, tenant, set, ctx, &mut rng), None)
        };
        match result {
            Ok((got, ce, bytes)) => {
                o.ce = ce;
                o.bytes = bytes;
                if got != *answer {
                    o.failure = Some(format!("wrong {} answer", job.kind.name()));
                } else if ce != *ce_pred {
                    o.failure = Some(format!(
                        "{} spent {ce} Ce, §6.1 predicts {ce_pred}",
                        job.kind.name()
                    ));
                }
            }
            Err(e) => o.failure = Some(format!("{}: {e}", job.kind.name())),
        }
        o.end_ns = now_ns();
        if let Some(root) = root {
            spans.list[root].end_ns = o.end_ns;
        }
        outcomes.push(o);
    }
    if !tenant.companion {
        primaries.fetch_sub(1, Ordering::SeqCst);
    }
    (outcomes, spans)
}

/// Reads STATS until the protocol histograms account for `sessions`
/// completed sessions (a handler records its session just after its
/// last frame leaves, so the final one can lag the client by a moment).
fn settled_stats(client: &mut MuxClient, sessions: u64) -> Result<String, String> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let raw = client
            .fetch_stats()
            .map_err(|e| format!("STATS failed: {e}"))?;
        let json = String::from_utf8_lossy(&raw).into_owned();
        if daemon_sessions(&json).0 >= sessions || Instant::now() > deadline {
            return Ok(json);
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// `(sessions, duration_ns sum, encryptions)` the daemon has recorded.
fn daemon_sessions(json: &str) -> (u64, u64, u64) {
    let mut count = 0;
    let mut sum = 0;
    for kind in [
        ProtocolKind::Intersection,
        ProtocolKind::Equijoin,
        ProtocolKind::IntersectionSize,
        ProtocolKind::EquijoinSize,
    ] {
        let (c, s) = probe::stats_histogram(json, &format!("protocol/{}/duration_ns", kind.name()));
        count += c;
        sum += s;
    }
    let ce = probe::stats_counter(json, "service/session_done/encryptions");
    (count, sum, ce)
}

/// An ordered list of `(name, value, unit)`.
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn run(args: &Args) -> Result<bool, String> {
    let w = workload::build(&args.workload, args.seed).ok_or_else(|| {
        format!(
            "unknown workload {:?} (one of {})",
            args.workload,
            workload::NAMES.join(", ")
        )
    })?;
    let work = WorkDir::create(args.workdir.clone())?;
    let values_file = work.0.join("daemon-values.txt");
    let mut lines = String::new();
    for (v, p) in &w.daemon {
        lines.push_str(&format!(
            "{}\t{}\n",
            String::from_utf8_lossy(v),
            String::from_utf8_lossy(p)
        ));
    }
    std::fs::write(&values_file, lines).map_err(|e| format!("write values: {e}"))?;
    let mut serve_args = vec![
        "--listen".to_string(),
        "127.0.0.1:0".to_string(),
        "--values".to_string(),
        values_file.display().to_string(),
        "--group-bits".to_string(),
        w.bits.to_string(),
    ];
    if let Some(budget) = w.daemon_mem_budget {
        serve_args.extend([
            "--mem-budget".to_string(),
            budget.to_string(),
            "--spill-dir".to_string(),
            work.sub("daemon-spill")?.display().to_string(),
        ]);
    }

    // Set-up: several fresh daemons, each timed to its first STATS reply;
    // the last one serves the run.
    let port_file = work.0.join("port");
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut live = None;
    for _ in 0..SETUPS {
        drop(live.take());
        let (daemon, client, took) = Daemon::start(&args.daemon, &serve_args, &port_file)?;
        setup_s.push(took.as_secs_f64());
        live = Some((daemon, client));
    }
    let (daemon, first_client) = live.expect("SETUPS > 0");
    let mut clients = vec![first_client];
    for _ in 1..w.tenants.len() {
        clients.push(daemon.connect()?);
    }

    let host_768 = layers::host_ce_us(768);
    let host_1024 = layers::host_ce_us(1024);
    let group = QrGroup::well_known(w.bits).map_err(|e| format!("group: {e}"))?;
    let expects: Vec<Expected> = w.tenants.iter().map(|t| expected(&w, t)).collect();
    let daemon_pid = daemon.pid().to_string();

    let stats0 = settled_stats(&mut clients[0], 0)?;
    let cpu0 = (probe::cpu_ms(&daemon_pid), probe::cpu_ms("self"));
    let primaries = AtomicUsize::new(w.tenants.iter().filter(|t| !t.companion).count());
    let t0 = now_ns();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut outcomes: Vec<Outcome> = Vec::new();
    let mut spans = Spans::default();
    let spill_dir = work.sub("client-spill")?;
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(i, client)| {
                let (tenant, expect) = (&w.tenants[i], &expects[i]);
                let (primaries, group, spill_dir) = (&primaries, &group, spill_dir.clone());
                scope.spawn(move || {
                    let ctx = ClientCtx {
                        group,
                        pool: EncryptPool::new(0),
                        spill_dir,
                    };
                    drive(
                        i, tenant, expect, client, &ctx, deadline, primaries, args.trace, args.seed,
                    )
                })
            })
            .collect();
        for h in handles {
            let (o, s) = h.join().expect("load thread panicked");
            outcomes.extend(o);
            spans.extend(s);
        }
    });
    let t1 = outcomes.iter().map(|o| o.end_ns).max().unwrap_or(t0);
    let cpu1 = (probe::cpu_ms(&daemon_pid), probe::cpu_ms("self"));
    let completed = outcomes.iter().filter(|o| o.failure.is_none()).count() as u64;
    let stats1 = settled_stats(&mut clients[0], daemon_sessions(&stats0).0 + completed)?;
    let rss = probe::peak_rss_mib(daemon.pid()).unwrap_or(0.0);

    let ok: Vec<&Outcome> = outcomes.iter().filter(|o| o.failure.is_none()).collect();
    for o in outcomes.iter().filter(|o| o.failure.is_some()) {
        eprintln!("session failed: {}", o.failure.as_deref().unwrap_or(""));
    }
    let attempted = outcomes.len() as u64;
    let failed = attempted - ok.len() as u64;
    let wall_s = (t1 - t0) as f64 / 1e9;
    let opens = stats::sorted(outcomes.iter().map(|o| o.open_ns as f64 / 1e6));
    let stall_ms = MuxConfig::default().open_timeout_ms as f64;
    let open_stalls = opens.iter().filter(|&&ms| ms >= stall_ms).count();
    let open_max_ms = opens.last().copied().unwrap_or(0.0);

    let wall_sessions_per_s = ok.len() as f64 / wall_s.max(1e-9);
    let wall_elems_per_s = ok.iter().map(|o| o.elems).sum::<u64>() as f64 / wall_s.max(1e-9);
    println!(
        "workload {} seed {} measured {:.3} s: {} sessions attempted, {} failed; wall-clock {wall_sessions_per_s:.4} sessions/s, {wall_elems_per_s:.2} elems/s",
        w.name, args.seed, wall_s, attempted, failed
    );
    println!(
        "host: nproc {} avx512ifma {} host.ce_us_768 {host_768:.2} host.ce_us_1024 {host_1024:.2}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        if cpu_has("avx512ifma") { "yes" } else { "no" }
    );
    println!(
        "net.server.open_stalls {open_stalls} (opens >= {stall_ms} ms), open max {open_max_ms:.3} ms"
    );

    let metrics = if args.trace {
        let d0 = daemon_sessions(&stats0);
        let d1 = daemon_sessions(&stats1);
        let (d_count, d_sum, d_ce) = (d1.0 - d0.0, d1.1 - d0.1, d1.2 - d0.2);
        let sessions = attempted.max(1) as f64;
        let cpu =
            |a: Option<f64>, b: Option<f64>| b.zip(a).map_or(0.0, |(b, a)| (b - a) / sessions);
        let traced: Vec<&&Outcome> = ok.iter().filter(|o| o.wire.is_some()).collect();
        let untraced = ok.iter().filter(|o| o.wire.is_none()).map(|o| o.wall_ms());
        let frame_sizes = traced
            .first()
            .and_then(|o| o.wire.as_ref())
            .map(|wr| wr.frame_sizes.clone())
            .unwrap_or_default();
        let mut values: Vec<Vec<u8>> = w.tenants.iter().flat_map(|t| t.sets[0].clone()).collect();
        values.extend(w.daemon.iter().map(|(v, _)| v.clone()));
        values.truncate(256);
        let payloads: Vec<Vec<u8>> = w.daemon.iter().map(|(_, p)| p.clone()).collect();
        let biggest = w
            .tenants
            .iter()
            .max_by_key(|t| t.sets[0].len())
            .expect("a tenant");
        let lt = layers::time_layers(
            &layers::LayerInput {
                group: &group,
                values: &values,
                payloads: &payloads,
                spill_records: biggest.sets[0].len(),
                spill_budget: biggest
                    .mem_budget
                    .unwrap_or_else(|| ShardConfig::default().mem_budget),
                spill_dir: &work.sub("layer-spill")?,
                frame_sizes: &frame_sizes,
            },
            &mut spans,
        )?;
        let per_traced = |f: &dyn Fn(&Outcome, &WireRecord) -> f64| {
            stats::mean(
                traced
                    .iter()
                    .map(|o| f(o, o.wire.as_ref().expect("traced"))),
            )
            .unwrap_or(0.0)
        };
        let recv_wait_ms = per_traced(&|_, wr| wr.recv_ns as f64 / 1e6);
        let daemon_ms = if d_count == 0 {
            0.0
        } else {
            d_sum as f64 / d_count as f64 / 1e6
        };
        let traced_p50 = stats::median(traced.iter().map(|o| o.wall_ms())).unwrap_or(0.0);
        let untraced_p50 = stats::median(untraced).unwrap_or(traced_p50);
        let explained = per_traced(&|o, wr| {
            (o.open_ns + wr.send_ns + wr.recv_ns + o.self_ns) as f64
                / (o.end_ns - o.start_ns) as f64
        });
        let (ce, ce_pred): (u64, u64) = ok
            .iter()
            .fold((0, 0), |(a, b), o| (a + o.ce, b + o.ce_pred));
        println!(
            "trace: {} traced sessions, overhead {:.4} ms per session (traced p50 {traced_p50:.3} ms - untraced p50 {untraced_p50:.3} ms), spans cover {:.4} of session wall",
            traced.len(),
            traced_p50 - untraced_p50,
            explained
        );
        let out = args
            .trace_out
            .clone()
            .unwrap_or_else(|| work.0.join("spans.jsonl"));
        spans
            .write_jsonl(&out)
            .map_err(|e| format!("write {}: {e}", out.display()))?;
        println!("spans written to {}", out.display());
        vec![
            (
                "net.server.open_ms",
                stats::percentile(&opens, 50).unwrap_or(0.0),
                "ms",
            ),
            ("net.server.open_max_ms", open_max_ms, "ms"),
            ("net.server.open_stalls", open_stalls as f64, "count"),
            ("net.mux.residual_ms", recv_wait_ms - daemon_ms, "ms"),
            ("net.mux.codec_ns_per_frame", lt.codec_ns_per_frame, "ns"),
            (
                "net.transport.frames",
                per_traced(&|_, wr| wr.frames as f64),
                "count",
            ),
            (
                "net.transport.bytes",
                per_traced(&|_, wr| wr.bytes as f64),
                "B",
            ),
            (
                "net.transport.send_ms",
                per_traced(&|_, wr| wr.send_ns as f64 / 1e6),
                "ms",
            ),
            ("net.transport.recv_wait_ms", recv_wait_ms, "ms"),
            (
                "core.client.self_ms",
                per_traced(&|o, _| o.self_ns as f64 / 1e6),
                "ms",
            ),
            ("core.service.daemon_ms", daemon_ms, "ms"),
            (
                "core.service.ce",
                if d_count == 0 {
                    0.0
                } else {
                    d_ce as f64 / d_count as f64
                },
                "count",
            ),
            ("core.spill.records", lt.spill_records as f64, "count"),
            ("core.spill.runs", lt.spill_runs as f64, "count"),
            ("core.spill.bytes", lt.spill_bytes as f64, "B"),
            ("core.spill.ns_per_record", lt.spill_ns_per_record, "ns"),
            ("daemon.cpu_ms", cpu(cpu0.0, cpu1.0), "ms"),
            ("client.cpu_ms", cpu(cpu0.1, cpu1.1), "ms"),
            ("crypto.group.hash_us", lt.hash_us, "us"),
            ("crypto.pool.ce_us", lt.ce_us, "us"),
            ("crypto.pool.daemon_ce_us", lt.daemon_ce_us, "us"),
            ("crypto.kcipher.record_us", lt.record_us, "us"),
            (
                "costmodel.ce_ratio",
                if ce_pred == 0 {
                    0.0
                } else {
                    ce as f64 / ce_pred as f64
                },
                "ratio",
            ),
            (
                "costmodel.time_residual_share",
                1.0 - per_traced(&|o, _| o.ce as f64 * lt.ce_us / 1e3 / o.wall_ms()),
                "share",
            ),
            ("host.ce_us_768", host_768, "us"),
            ("host.ce_us_1024", host_1024, "us"),
            ("e2e.wall_sessions_per_s", wall_sessions_per_s, "1/s"),
            ("e2e.wall_elems_per_s", wall_elems_per_s, "elems/s"),
            ("trace.overhead_ms", traced_p50 - untraced_p50, "ms"),
            ("trace.span_coverage", explained, "share"),
        ]
    } else {
        end_to_end(&w, &ok, &setup_s, rss, attempted)
    };

    drop(clients);
    drop(daemon);
    drop(work);

    let correct = failed == 0;
    for (name, value, unit) in &metrics {
        println!("{name:<32} {value:>16.6} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(correct)
}

/// The end-to-end metrics. "small" and "bulk" are the workload's
/// small-set and large-set tenants; a single-tenant workload's one tenant
/// is both.
fn end_to_end(w: &Workload, ok: &[&Outcome], setup_s: &[f64], rss: f64, attempted: u64) -> Metrics {
    let class_of = |o: &Outcome| w.tenants[o.tenant].class;
    let latencies = |small: bool| {
        stats::sorted(
            ok.iter()
                .filter(|o| !small || class_of(o) != "bulk")
                .map(|o| o.wall_ms()),
        )
    };
    let all = latencies(false);
    let small = latencies(true);
    // The tail percentile is fixed per workload, so a run that happens to
    // complete more sessions does not switch to a higher percentile.
    let p = w.tail_percentile;
    for (name, sample) in [("session_tail_ms", &all), ("small_tail_ms", &small)] {
        let supported =
            stats::tail_percentile(sample.len()).map_or("no tail".to_string(), |q| format!("p{q}"));
        println!(
            "{name} is p{p} of {} sessions ({} beyond; the sample supports {supported})",
            sample.len(),
            stats::beyond(sample.len(), p)
        );
    }
    // Throughput: each connection's median per-session rate, summed over
    // connections. One stalled open (10 s, see the README) or a host
    // hiccup moves a median of sessions far less than a wall-clock mean.
    let rate = |bulk_only: bool, weight: &dyn Fn(&Outcome) -> f64| {
        stats::connection_rate((0..w.tenants.len()).map(|t| {
            ok.iter()
                .filter(|o| o.tenant == t && (!bulk_only || class_of(o) != "small"))
                .map(|o| (weight(o), o.wall_ms() / 1e3))
                .collect()
        }))
    };
    let elems: u64 = ok.iter().map(|o| o.elems).sum();
    let bytes: u64 = ok.iter().map(|o| o.bytes).sum();
    vec![
        (
            "setup_s",
            stats::median(setup_s.iter().copied()).unwrap_or(0.0),
            "s",
        ),
        ("sessions_per_s", rate(false, &|_| 1.0), "1/s"),
        ("elems_per_s", rate(false, &|o| o.elems as f64), "elems/s"),
        (
            "session_p50_ms",
            stats::percentile(&all, 50).unwrap_or(0.0),
            "ms",
        ),
        (
            "session_tail_ms",
            stats::percentile(&all, p).unwrap_or(0.0),
            "ms",
        ),
        (
            "small_p50_ms",
            stats::percentile(&small, 50).unwrap_or(0.0),
            "ms",
        ),
        (
            "small_tail_ms",
            stats::percentile(&small, p).unwrap_or(0.0),
            "ms",
        ),
        (
            "bulk_elems_per_s",
            rate(true, &|o| o.elems as f64),
            "elems/s",
        ),
        (
            "wire_bytes_per_elem",
            if elems == 0 {
                0.0
            } else {
                bytes as f64 / elems as f64
            },
            "B/elem",
        ),
        ("daemon_peak_rss_mib", rss, "MiB"),
        (
            "session_success_ratio",
            ok.len() as f64 / attempted.max(1) as f64,
            "ratio",
        ),
    ]
}

fn cpu_has(flag: &str) -> bool {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| {
            s.lines()
                .filter(|l| l.starts_with("flags"))
                .any(|l| l.split_whitespace().any(|f| f == flag))
        })
        .unwrap_or(false)
}
