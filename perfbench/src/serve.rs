//! `serve-mix`: two connections to a memory-only `vaultd`, each with one
//! request outstanding, sending seeded single-unit `check` and `emit-c`
//! requests over standalone generated units: novel units, repeats from a
//! small hot set, and the same novel unit sent on both connections at once.

use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use vault_server::{parse_json, proto, Json};

use crate::gen::{solo_unit, Rng, SoloUnit, SHAPES};
use crate::proc::{unit_json, Conn, CpuTicks, Daemon};
use crate::stats::samples_for_tail;
use crate::trace::{replay_unit, status_counters, Tracer};
use crate::{oracle, Args, EndToEnd, Outcome};

pub const SETUPS: usize = 3;
pub const TAIL: f64 = 0.9;
const SOCKET: &str = "serve.sock";
/// Concurrent client connections, each with one request outstanding.
pub const CONNS: usize = 2;
/// Units in the hot set: two of each shape.
pub const HOT: usize = 12;
/// Restart probes: one after every few rounds, at least this many.
const RESTARTS: usize = 15;
const RESTART_EVERY: u64 = 2;
const PROBE_SOCKET: &str = "probe.sock";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Check,
    EmitC,
}

/// Per connection and round: (novel check, novel emit-c, hot check,
/// hot emit-c, duplicate check) request counts.
pub const MIX: [usize; 5] = [30, 10, 40, 10, 10];

/// One scripted request.
pub struct Req {
    pub kind: Kind,
    pub unit: Arc<SoloUnit>,
    /// Whether the unit is new to the daemon (a cache miss is expected).
    pub novel: bool,
    /// Ordinal of the duplicate pair this request belongs to.
    pub dup: Option<usize>,
    pub id: u64,
}

impl Req {
    pub fn line(&self) -> String {
        let mut s = String::with_capacity(self.unit.source.len() + 128);
        match self.kind {
            Kind::Check => {
                s.push_str(&format!(
                    "{{\"op\":\"check\",\"id\":{},\"units\":[",
                    self.id
                ));
                unit_json(&mut s, &self.unit.name, &self.unit.source);
                s.push(']');
            }
            Kind::EmitC => {
                s.push_str(&format!("{{\"op\":\"emit-c\",\"id\":{},\"unit\":", self.id));
                unit_json(&mut s, &self.unit.name, &self.unit.source);
            }
        }
        s.push_str("}\n");
        s
    }

    pub fn judge(&self, reply: &Json) -> Result<(), String> {
        let u = &self.unit;
        match self.kind {
            Kind::Check => {
                oracle::units_reply(reply, "check", &[&u.name], std::slice::from_ref(&u.truth))
            }
            Kind::EmitC => oracle::emit_reply(reply, &u.name, &u.truth),
        }
    }
}

fn unit_seed(seed: u64, round: u64, lane: u64, j: u64) -> u64 {
    let mut r = Rng::new(seed ^ round.rotate_left(24) ^ lane.rotate_left(48) ^ j);
    r.next_u64()
}

/// Shapes cycle in a fixed order, so every seed draws the same mix.
fn shape_of(j: u64) -> vault_corpus::synth::Shape {
    SHAPES[(j % SHAPES.len() as u64) as usize]
}

pub fn hot_set(seed: u64) -> Vec<Arc<SoloUnit>> {
    (0..HOT as u64)
        .map(|j| Arc::new(solo_unit(unit_seed(seed, u64::MAX, 7, j), shape_of(j))))
        .collect()
}

/// The scripts of one round: one request list per connection. Duplicate
/// requests appear in the same order on every connection.
pub fn round_script(
    seed: u64,
    round: u64,
    hot: &[Arc<SoloUnit>],
    next_id: &mut u64,
) -> Vec<Vec<Req>> {
    let dups: Vec<Arc<SoloUnit>> = (0..MIX[4] as u64)
        .map(|j| {
            Arc::new(solo_unit(
                unit_seed(seed, round, CONNS as u64, j),
                shape_of(j),
            ))
        })
        .collect();
    let mut rng = Rng::new(seed ^ round.wrapping_mul(0x51));
    (0..CONNS)
        .map(|lane| {
            let mut slots: Vec<usize> = Vec::new();
            for (k, n) in MIX.iter().enumerate() {
                slots.extend(std::iter::repeat_n(k, *n));
            }
            rng.shuffle(&mut slots);
            let mut novel = 0u64;
            let mut dup = 0usize;
            slots
                .into_iter()
                .map(|slot| {
                    *next_id += 1;
                    let (kind, unit, is_novel, d) = match slot {
                        0 | 1 => {
                            novel += 1;
                            let u = solo_unit(
                                unit_seed(seed, round, lane as u64, novel),
                                shape_of(novel),
                            );
                            let u = Arc::new(u);
                            (
                                if slot == 0 { Kind::Check } else { Kind::EmitC },
                                u,
                                true,
                                None,
                            )
                        }
                        2 | 3 => {
                            let u = Arc::clone(&hot[rng.below(hot.len())]);
                            (
                                if slot == 2 { Kind::Check } else { Kind::EmitC },
                                u,
                                false,
                                None,
                            )
                        }
                        _ => {
                            dup += 1;
                            (Kind::Check, Arc::clone(&dups[dup - 1]), true, Some(dup - 1))
                        }
                    };
                    Req {
                        kind,
                        unit,
                        novel: is_novel,
                        dup: d,
                        id: *next_id,
                    }
                })
                .collect()
        })
        .collect()
}

/// What one connection saw in a round: per request, (latency ms, reply).
type LaneResult = Vec<Result<(f64, String), String>>;

/// Run one round on the connections; returns the per-lane results and
/// the round's wall time in seconds. Requests are encoded before the
/// round starts and replies decoded after it ends.
fn play_round(conns: &mut [Conn], script: &[Vec<Req>]) -> (Vec<LaneResult>, f64) {
    let lines: Vec<Vec<String>> = script
        .iter()
        .map(|reqs| reqs.iter().map(Req::line).collect())
        .collect();
    let barrier = Barrier::new(CONNS);
    let start = Instant::now();
    let results = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(script.iter().zip(&lines))
            .map(|(conn, (reqs, lines))| {
                let barrier = &barrier;
                s.spawn(move || {
                    reqs.iter()
                        .zip(lines)
                        .map(|(r, line)| {
                            if r.dup.is_some() {
                                barrier.wait();
                            }
                            let t = Instant::now();
                            conn.roundtrip(line.as_bytes())
                                .map(|reply| {
                                    (t.elapsed().as_secs_f64() * 1000.0, reply.to_string())
                                })
                                .map_err(|e| e.to_string())
                        })
                        .collect::<LaneResult>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    (results, start.elapsed().as_secs_f64())
}

/// Judge a round's replies, duplicate pairs included; returns latencies.
fn judge_round(out: &mut Outcome, script: &[Vec<Req>], results: Vec<LaneResult>) -> Vec<f64> {
    let mut lat = Vec::new();
    let mut dup_replies: Vec<Vec<Json>> = vec![Vec::new(); MIX[4]];
    for (reqs, lane) in script.iter().zip(results) {
        for (r, res) in reqs.iter().zip(lane) {
            out.attempted += 1;
            let reply = match res.and_then(|(ms, line)| {
                parse_json(&line)
                    .map(|j| (ms, j))
                    .map_err(|e| format!("bad reply: {e:?}"))
            }) {
                Ok(x) => x,
                Err(e) => {
                    out.fail("request", e);
                    continue;
                }
            };
            if reply.1.get("ok").and_then(Json::as_bool) != Some(true) {
                out.fail("request", reply.1.to_line());
                continue;
            }
            lat.push(reply.0);
            out.judge("request", r.judge(&reply.1));
            if let Some(d) = r.dup {
                dup_replies[d].push(reply.1);
            }
        }
    }
    for pair in dup_replies {
        if let [a, b] = pair.as_slice() {
            out.judge("duplicate pair", oracle::duplicate_pair(a, b));
        }
    }
    lat
}

/// Unit-cache capacity of the daemon: far above the hot set, far below
/// the novel units of one run, so the caches fill early in every run and
/// memory reaches the same plateau whatever the run's length.
pub const CACHE: usize = 256;

fn spawn(args: &Args, socket: &str) -> Result<Daemon, String> {
    let jobs = args.jobs().to_string();
    let cache = CACHE.to_string();
    Daemon::spawn(&args.bin_dir, socket, &["--jobs", &jobs, "--cache", &cache])
        .map_err(|e| format!("vaultd: {e}"))
}

/// Spawn a fresh daemon beside the measured one and time spawn to its
/// answer on one `check` of the whole hot set, ms.
fn restart_probe(
    args: &Args,
    hot: &[Arc<SoloUnit>],
    next_id: &mut u64,
    out: &mut Outcome,
) -> Result<f64, String> {
    *next_id += 1;
    let mut line = format!("{{\"op\":\"check\",\"id\":{next_id},\"units\":[");
    for (k, u) in hot.iter().enumerate() {
        if k > 0 {
            line.push(',');
        }
        unit_json(&mut line, &u.name, &u.source);
    }
    line.push_str("]}\n");
    let names: Vec<&str> = hot.iter().map(|u| u.name.as_str()).collect();
    let truth: Vec<_> = hot.iter().map(|u| u.truth.clone()).collect();
    let t = Instant::now();
    let d = spawn(args, PROBE_SOCKET)?;
    let mut c = d.connect().map_err(|e| e.to_string())?;
    out.attempted += 1;
    let reply = c.roundtrip(line.as_bytes()).map(str::to_string);
    let ms = t.elapsed().as_secs_f64() * 1000.0;
    drop(c);
    d.shutdown().map_err(|e| format!("vaultd shutdown: {e}"))?;
    let reply = reply.map_err(|e| format!("restart probe: {e}"))?;
    let reply = parse_json(&reply).map_err(|e| format!("bad reply: {e:?}"))?;
    out.judge(
        "restart",
        oracle::units_reply(&reply, "check", &names, &truth),
    );
    Ok(ms)
}

fn connect(d: &Daemon) -> Result<Vec<Conn>, String> {
    (0..CONNS)
        .map(|_| d.connect().map_err(|e| e.to_string()))
        .collect()
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut next_id = 0u64;
    // Set-up: the hot set, a daemon, both connections, every hot unit
    // checked once, and one unmeasured round. Repeated; `setup_s` is the
    // median.
    let mut setups = Vec::new();
    let mut live: Option<(Daemon, Vec<Conn>)> = None;
    let mut hot = Vec::new();
    let setup_ticks = CpuTicks::now();
    for k in 0..SETUPS {
        if let Some((d, conns)) = live.take() {
            drop(conns);
            d.shutdown().map_err(|e| format!("vaultd shutdown: {e}"))?;
        }
        let t = Instant::now();
        hot = hot_set(args.seed);
        let daemon = spawn(args, SOCKET)?;
        let mut conns = connect(&daemon)?;
        for u in &hot {
            next_id += 1;
            let r = Req {
                kind: Kind::Check,
                unit: Arc::clone(u),
                novel: true,
                dup: None,
                id: next_id,
            };
            let reply = conns[0]
                .roundtrip(r.line().as_bytes())
                .map_err(|e| e.to_string())?;
            let reply = parse_json(reply).map_err(|e| format!("bad reply: {e:?}"))?;
            r.judge(&reply)
                .map_err(|e| format!("set-up answer is wrong: {e}"))?;
        }
        let script = round_script(args.seed, u64::MAX - 1 - k as u64, &hot, &mut next_id);
        let (results, _) = play_round(&mut conns, &script);
        let mut warm = Outcome::default();
        judge_round(&mut warm, &script, results);
        if warm.failed > 0 || !warm.wrong.is_empty() {
            return Err(format!("set-up round went wrong: {:?}", warm.wrong.first()));
        }
        setups.push(t.elapsed().as_secs_f64());
        live = Some((daemon, conns));
    }
    let (daemon, mut conns) = live.expect("at least one set-up");
    let setup_steal = setup_ticks.steal_share_since();

    if args.trace {
        return traced(args, daemon, conns, &hot, next_id, out);
    }

    let min_samples = if args.smoke {
        1
    } else {
        samples_for_tail(TAIL)
    };
    let mut lat_ms = Vec::new();
    let mut round_rates = Vec::new();
    let mut restarts = Vec::new();
    let cpu0 = daemon.cpu_ms();
    let run_ticks = CpuTicks::now();
    let start = Instant::now();
    let mut round = 0u64;
    while start.elapsed().as_secs_f64() < args.seconds || lat_ms.len() < min_samples {
        let script = round_script(args.seed, round, &hot, &mut next_id);
        round += 1;
        let (results, wall_s) = play_round(&mut conns, &script);
        let n: usize = results.iter().map(Vec::len).sum();
        round_rates.push(n as f64 / wall_s);
        lat_ms.extend(judge_round(&mut out, &script, results));
        if round.is_multiple_of(RESTART_EVERY) {
            restarts.push(restart_probe(args, &hot, &mut next_id, &mut out)?);
        }
    }
    let cpu_ms = daemon.cpu_ms() - cpu0;
    let hwm_kb = daemon.hwm_kb();
    drop(conns);
    daemon
        .shutdown()
        .map_err(|e| format!("vaultd shutdown: {e}"))?;

    while restarts.len() < RESTARTS {
        restarts.push(restart_probe(args, &hot, &mut next_id, &mut out)?);
    }
    let run_steal = run_ticks.steal_share_since();
    eprintln!("perfbench: serve-mix: {round} rounds");
    EndToEnd {
        setups_s: setups,
        cpu_ms_per_op: cpu_ms / lat_ms.len().max(1) as f64,
        latencies_ms: lat_ms,
        tail: TAIL,
        round_rates,
        restarts_ms: restarts,
        peak_rss_mb: hwm_kb as f64 / 1024.0,
        setup_steal,
        run_steal,
    }
    .report(&mut out);
    Ok(out)
}

fn status(conn: &mut Conn) -> Result<Json, String> {
    let reply = conn
        .roundtrip(b"{\"op\":\"status\"}\n")
        .map_err(|e| e.to_string())?;
    parse_json(reply).map_err(|e| format!("bad status: {e:?}"))
}

/// One traced request: client encode, the server-side decode replayed
/// in-process, the round trip through the daemon's mux, the client
/// decode, and for a novel unit an in-process replay of the checker
/// (and C emission for `emit-c`).
fn traced_request(
    tr: &mut Tracer,
    conn: &mut Conn,
    r: &Req,
    barrier: &Barrier,
) -> Result<Json, String> {
    tr.request(|tr| {
        let line = tr.span("wire.encode", |_| r.line());
        tr.add("wire.request_bytes", line.len() as f64);
        tr.add("wire.requests", 1.0);
        let decoded = tr.span("wire.decode", |_| {
            parse_json(line.trim_end()).map(|v| proto::parse_request(&v).1)
        });
        if !matches!(decoded, Ok(Ok(_))) {
            return Err(format!("request did not decode: {decoded:?}"));
        }
        if r.dup.is_some() {
            barrier.wait();
        }
        let t = Instant::now();
        let reply = tr
            .span("mux.roundtrip", |_| {
                conn.roundtrip(line.as_bytes()).map(str::to_string)
            })
            .map_err(|e| e.to_string())?;
        let rtt_us = t.elapsed().as_secs_f64() * 1e6;
        tr.add("wire.response_bytes", reply.len() as f64);
        tr.add("wire.responses", 1.0);
        let json = tr
            .span("wire.decode", |_| parse_json(&reply))
            .map_err(|e| format!("bad reply: {e:?}"))?;
        if let Some(w) = json.get("wall_micros").and_then(Json::as_f64) {
            tr.add("mux.overhead_us", rtt_us - w);
            tr.add("mux.overhead_n", 1.0);
        }
        if r.novel {
            replay_unit(tr, &r.unit.name, "", &r.unit.source, r.kind == Kind::EmitC);
        }
        Ok(json)
    })
}

fn traced(
    args: &Args,
    daemon: Daemon,
    mut conns: Vec<Conn>,
    hot: &[Arc<SoloUnit>],
    mut next_id: u64,
    mut out: Outcome,
) -> Result<Outcome, String> {
    let t0 = Instant::now();
    let mut tracers: Vec<Tracer> = (0..CONNS as u64)
        .map(|lane| Tracer::new(t0, lane))
        .collect();
    let before = status(&mut conns[0])?;
    let start = Instant::now();
    let mut round = 0u64;
    let mut dup_pairs = 0usize;
    while start.elapsed().as_secs_f64() < args.seconds || round < 1 {
        let script = round_script(args.seed, round, hot, &mut next_id);
        round += 1;
        dup_pairs += MIX[4];
        let barrier = Barrier::new(CONNS);
        let results: Vec<Vec<Result<Json, String>>> = std::thread::scope(|s| {
            let handles: Vec<_> = conns
                .iter_mut()
                .zip(tracers.iter_mut())
                .zip(&script)
                .map(|((conn, tr), reqs)| {
                    let barrier = &barrier;
                    s.spawn(move || {
                        let mut replies = Vec::new();
                        for (k, r) in reqs.iter().enumerate() {
                            replies.push(traced_request(tr, conn, r, barrier));
                            if k % 50 == 49 {
                                let _ = tr.span("mux.status", |_| status(conn));
                            }
                        }
                        replies
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        for (reqs, replies) in script.iter().zip(results) {
            for (r, reply) in reqs.iter().zip(replies) {
                out.attempted += 1;
                match reply {
                    Ok(j) => out.judge("request", r.judge(&j)),
                    Err(e) => out.fail("request", e),
                }
            }
        }
    }
    let after = status(&mut conns[0])?;
    let mut tr = tracers.remove(0);
    for other in tracers {
        tr.merge(other);
    }
    status_counters(&mut tr, &before, &after);
    tr.add("singleflight.dups", dup_pairs as f64);
    let busy = |v: &Json| v.get("check_micros").and_then(Json::as_f64).unwrap_or(0.0);
    tr.add("pool.check_us", busy(&after) - busy(&before));
    tr.add(
        "pool.capacity_us",
        start.elapsed().as_secs_f64() * 1e6 * args.jobs() as f64,
    );
    drop(conns);
    tr.write(Path::new("trace-serve-mix.jsonl"))
        .map_err(|e| format!("writing spans: {e}"))?;
    daemon
        .shutdown()
        .map_err(|e| format!("vaultd shutdown: {e}"))?;
    out.metrics = tr.layer_metrics();
    Ok(out)
}
