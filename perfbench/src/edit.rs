//! `edit-session`: one editor connection to a `vaultd` started with
//! `--cache-dir`. Each scripted edit is followed by a `check-project` of
//! the whole project; the daemon is shut down and restarted on the same
//! store once per round of edits.

use std::path::Path;
use std::time::Instant;

use vault_project::{ProjectPlan, ProjectUnit};
use vault_server::{
    parse_json, proto, CheckService, Json, ServiceConfig, StoreConfig, UnitIn, VerdictStore,
};

use crate::gen::{self, Editor, Size, EDIT_ROUND};
use crate::proc::{Conn, CpuTicks, Daemon};
use crate::stats::samples_for_tail;
use crate::trace::{replay_unit, status_counters, Tracer};
use crate::{oracle, Args, EndToEnd, Outcome};

pub const SETUPS: usize = 3;
pub const TAIL: f64 = 0.9;
const SOCKET: &str = "edit.sock";
const STORE: &str = "store";
/// Edits made while setting up, before timing starts.
const WARM_EDITS: usize = 4;
/// Rounds whose restarts and daemon lives count toward `restart_ms` and
/// `peak_rss_mb`. The store grows with every round, so only a fixed
/// number of rounds gives every run the same store sizes.
const MEASURED_ROUNDS: usize = 5;

fn spawn(args: &Args) -> Result<Daemon, String> {
    let jobs = args.jobs().to_string();
    Daemon::spawn(
        &args.bin_dir,
        SOCKET,
        &["--jobs", &jobs, "--cache-dir", STORE],
    )
    .map_err(|e| format!("vaultd: {e}"))
}

/// One `check-project` round trip; the request is encoded before timing
/// starts and the reply decoded after it stops. Returns (ms, reply).
fn check(conn: &mut Conn, ed: &Editor, id: u64) -> Result<(f64, Json), String> {
    let line = ed.project.request_line(id);
    let t = Instant::now();
    let reply = conn.roundtrip(line.as_bytes()).map_err(|e| e.to_string())?;
    let ms = t.elapsed().as_secs_f64() * 1000.0;
    let json = parse_json(reply).map_err(|e| format!("bad reply: {e:?}"))?;
    Ok((ms, json))
}

fn judge(ed: &Editor, reply: &Json) -> Result<(), String> {
    let names: Vec<&str> = ed.project.units.iter().map(|u| u.name.as_str()).collect();
    oracle::units_reply(reply, "check-project", &names, &ed.project.truth)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    if args.trace {
        return traced(args, out);
    }
    // Set-up: a fresh store, a daemon on it, the first (cold) full check
    // and a few warm-up edits. Repeated; `setup_s` is the median.
    let mut setups = Vec::new();
    let mut live: Option<(Daemon, Conn, Editor)> = None;
    let mut id = 0u64;
    let setup_ticks = CpuTicks::now();
    for _ in 0..SETUPS {
        if let Some((d, _, _)) = live.take() {
            d.shutdown().map_err(|e| format!("vaultd shutdown: {e}"))?;
        }
        let t = Instant::now();
        let _ = std::fs::remove_dir_all(STORE);
        let mut ed = Editor::new(gen::project(args.seed, Size::new(args.smoke)), args.seed);
        let daemon = spawn(args)?;
        let mut conn = daemon.connect().map_err(|e| e.to_string())?;
        for k in 0..=WARM_EDITS {
            if k > 0 {
                ed.apply(EDIT_ROUND[k - 1]);
            }
            id += 1;
            let (_, reply) = check(&mut conn, &ed, id)?;
            judge(&ed, &reply).map_err(|e| format!("set-up answer is wrong: {e}"))?;
        }
        setups.push(t.elapsed().as_secs_f64());
        live = Some((daemon, conn, ed));
    }
    let (mut daemon, mut conn, mut ed) = live.expect("at least one set-up");
    let setup_steal = setup_ticks.steal_share_since();

    let min_samples = if args.smoke {
        1
    } else {
        samples_for_tail(TAIL)
    };
    let mut lat_ms = Vec::new();
    let mut round_rates = Vec::new();
    let mut restarts = Vec::new();
    let mut cpu_ms = 0.0;
    let mut cpu_base = daemon.cpu_ms();
    let mut hwm_kb = 0u64;
    let mut rounds = 0usize;
    let min_rounds = if args.smoke { 1 } else { MEASURED_ROUNDS };
    let run_ticks = CpuTicks::now();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds
        || lat_ms.len() < min_samples
        || rounds < min_rounds
    {
        rounds += 1;
        let measured = rounds <= MEASURED_ROUNDS;
        let mut round_s = 0.0;
        for kind in EDIT_ROUND {
            ed.apply(kind);
            id += 1;
            out.attempted += 1;
            match check(&mut conn, &ed, id) {
                Ok((ms, reply)) => {
                    lat_ms.push(ms);
                    round_s += ms / 1000.0;
                    out.judge("edit", judge(&ed, &reply));
                }
                Err(e) => out.fail("edit", e),
            }
        }
        round_rates.push(EDIT_ROUND.len() as f64 / round_s);

        // Restart on the same store: spawn to first full-project answer.
        // Measured rounds restart twice, for more samples per store size.
        for _ in 0..if measured { 2 } else { 1 } {
            cpu_ms += daemon.cpu_ms() - cpu_base;
            if measured {
                hwm_kb = hwm_kb.max(daemon.hwm_kb());
            }
            drop(conn);
            daemon
                .shutdown()
                .map_err(|e| format!("vaultd shutdown: {e}"))?;
            id += 1;
            let line = ed.project.request_line(id);
            let t = Instant::now();
            daemon = spawn(args)?;
            conn = daemon.connect().map_err(|e| e.to_string())?;
            out.attempted += 1;
            match conn.roundtrip(line.as_bytes()) {
                Ok(reply) => {
                    if measured {
                        restarts.push(t.elapsed().as_secs_f64() * 1000.0);
                    }
                    let reply = parse_json(reply).map_err(|e| format!("bad reply: {e:?}"))?;
                    out.judge("restart", judge(&ed, &reply));
                }
                Err(e) => out.fail("restart", e),
            }
            cpu_base = 0.0;
        }
    }
    cpu_ms += daemon.cpu_ms() - cpu_base;
    drop(conn);
    daemon
        .shutdown()
        .map_err(|e| format!("vaultd shutdown: {e}"))?;

    let run_steal = run_ticks.steal_share_since();
    eprintln!(
        "perfbench: edit-session: {} units, {} bytes, {rounds} rounds",
        ed.project.units.len(),
        ed.project.bytes()
    );
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

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// The traced run: the same edit script against an in-process
/// `CheckService` on its own store, with spans around the wire encode and
/// decode, plan building, the service call and the store open, plus a
/// replay of the front end over every unit the plan parses.
fn traced(args: &Args, mut out: Outcome) -> Result<Outcome, String> {
    let store = Path::new("store-trace");
    let _ = std::fs::remove_dir_all(store);
    let jobs = args.jobs();
    let config = ServiceConfig {
        jobs,
        cache_dir: Some(store.to_path_buf()),
        ..Default::default()
    };
    let mut ed = Editor::new(gen::project(args.seed, Size::new(args.smoke)), args.seed);
    let mut svc = CheckService::new(config.clone());
    let mut tr = Tracer::new(Instant::now(), 0);
    let mut id = 0u64;
    // The first full check is set-up, as in the untraced run.
    let first: Vec<UnitIn> = ed
        .project
        .units
        .iter()
        .map(|u| UnitIn {
            name: u.name.clone(),
            source: u.source.clone(),
        })
        .collect();
    svc.check_project(first);

    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds || out.attempted < 2 {
        for kind in EDIT_ROUND {
            ed.apply(kind);
            id += 1;
            out.attempted += 1;
            let verdict = tr.request(|tr| edit_op(tr, &svc, &ed, id));
            out.judge("edit", verdict);
        }
        // Restart: reopen the store on its own, then boot a service on it.
        drop(svc);
        let (store_handle, _) = tr
            .span("persist.open", |_| {
                VerdictStore::open(store, StoreConfig::default())
            })
            .map_err(|e| format!("store: {e}"))?;
        let health = store_handle.health();
        tr.peak("persist.live_frames", health.live_frames as f64);
        tr.peak("persist.store_bytes", dir_bytes(store) as f64);
        drop(store_handle);
        svc = CheckService::new(config.clone());
    }
    tr.write(Path::new("trace-edit-session.jsonl"))
        .map_err(|e| format!("writing spans: {e}"))?;
    out.metrics = tr.layer_metrics();
    Ok(out)
}

/// One traced edit round trip through the in-process layers.
fn edit_op(tr: &mut Tracer, svc: &CheckService, ed: &Editor, id: u64) -> Result<(), String> {
    let request = tr.span("wire.encode", |_| ed.project.request_line(id));
    tr.add("wire.request_bytes", request.len() as f64);
    tr.add("wire.requests", 1.0);
    let req = tr.span("wire.decode", |_| {
        parse_json(request.trim_end()).map(|v| proto::parse_request(&v).1)
    });
    let units = match req {
        Ok(Ok(vault_server::Request::CheckProject { units })) => units,
        other => return Err(format!("request did not decode: {other:?}")),
    };
    let punits: Vec<ProjectUnit> = units
        .iter()
        .map(|u| ProjectUnit::new(&u.name, &u.source))
        .collect();
    let plan = tr.span("project.plan", |_| {
        ProjectPlan::build(&punits, vault_syntax::DEFAULT_PARSER_DEPTH)
    });
    tr.add("project.units_parsed", punits.len() as f64);
    let before = proto::encode_status(None, &svc.status(), 0, 0, 0, None);
    let (reports, wall) = tr.span("service.check_project", |_| svc.check_project(units));
    let after = proto::encode_status(None, &svc.status(), 0, 0, 0, None);
    status_counters(tr, &before, &after);
    tr.add(
        "pool.check_us",
        reports.iter().map(|r| r.check_micros as f64).sum(),
    );
    tr.add("pool.capacity_us", wall as f64 * svc.workers() as f64);
    let response = tr.span("wire.encode", |_| {
        proto::encode_check_project(Some(id), &reports, wall).to_line()
    });
    tr.add("wire.response_bytes", response.len() as f64);
    tr.add("wire.responses", 1.0);
    let reply = tr
        .span("wire.decode", |_| parse_json(&response))
        .map_err(|e| format!("bad reply: {e:?}"))?;
    // The front end over what was re-checked: the units the service
    // scheduled rather than answered from its caches.
    for (i, r) in reports.iter().enumerate() {
        if !r.cached {
            let u = &ed.project.units[i];
            replay_unit(tr, &u.name, &plan.units[i].prelude, &u.source, false);
        }
    }
    judge(ed, &reply)
}
