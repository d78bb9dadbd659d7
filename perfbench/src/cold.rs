//! `cold-project`: repeated fresh `vaultc check --project --jobs <cores>`
//! on a generated project of a few hundred units, by one sequential
//! caller. Every cache misses, so the front end, plan building, the
//! checker and the pool fan-out do all the work.

use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

use vault_project::{ProjectPlan, ProjectUnit};
use vault_server::{proto, CheckService, ServiceConfig, UnitIn};

use crate::gen::{self, Project, Size, Truth};
use crate::proc::{children_usage, CpuTicks};
use crate::stats::samples_for_tail;
use crate::trace::{replay_unit, status_counters, Tracer};
use crate::{oracle, Args, EndToEnd, Outcome};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Checks per round; runs attempt whole rounds.
const ROUND: usize = 5;
/// Restart probes per round.
const PROBES: usize = 2;
/// The tail percentile reported as `latency_tail_ms`.
pub const TAIL: f64 = 0.8;

struct CliRun {
    wall: Duration,
    cpu_ms: f64,
    stdout: String,
    code: Option<i32>,
}

fn cli_check(args: &Args, manifest: &Path) -> std::io::Result<CliRun> {
    let before = children_usage();
    let t = Instant::now();
    let out = Command::new(args.bin_dir.join("vaultc"))
        .args(["check", "--project"])
        .arg(manifest)
        .args(["--jobs", &args.jobs().to_string()])
        .output()?;
    let wall = t.elapsed();
    let after = children_usage();
    Ok(CliRun {
        wall,
        cpu_ms: after.cpu_us.saturating_sub(before.cpu_us) as f64 / 1000.0,
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        code: out.status.code(),
    })
}

/// Check one CLI answer: the exit code and every unit's verdict.
fn judge(run: &CliRun, names: &[&str], truth: &[Truth]) -> Result<(), String> {
    let want = if truth.iter().all(|t| t.accept) { 0 } else { 1 };
    if run.code != Some(want) {
        return Err(format!("exit code {:?}, expected {want}", run.code));
    }
    oracle::cli_output(&run.stdout, names, truth)
}

/// Generated workers in the restart probe's project.
const PROBE_WORKERS: usize = 30;

/// The restart probe's project: the shared interface, the first
/// [`PROBE_WORKERS`] generated workers and the six units of the corpus
/// splits (floppy driver and socket server). Large enough that process
/// start-up noise does not dominate, small enough to stay a start-up probe.
fn probe_units(p: &Project) -> Vec<usize> {
    p.units
        .iter()
        .enumerate()
        .filter(|(i, u)| {
            *i <= PROBE_WORKERS
                || ["kernel", "floppy_hw", "driver", "net", "handlers", "server"]
                    .contains(&u.name.as_str())
        })
        .map(|(i, _)| i)
        .collect()
}

fn write_subset(p: &Project, idx: &[usize], dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut manifest = String::new();
    for &i in idx {
        let u = &p.units[i];
        manifest.push_str(&format!("[[unit]]\npath = \"{}.vlt\"\n", u.name));
        std::fs::write(dir.join(format!("{}.vlt", u.name)), &u.source)?;
    }
    std::fs::write(dir.join("vault.toml"), manifest)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let dir = Path::new("project");
    let manifest = dir.join("vault.toml");

    // Set-up: generate and write the project, then one checked warm-up
    // run of the CLI. Repeated; `setup_s` is the median.
    let mut setups = Vec::new();
    let mut project = None;
    let setup_ticks = CpuTicks::now();
    for _ in 0..SETUPS {
        let t = Instant::now();
        let _ = std::fs::remove_dir_all(dir);
        let p = gen::project(args.seed, Size::new(args.smoke));
        p.write_to(dir)
            .map_err(|e| format!("writing the project: {e}"))?;
        let names: Vec<&str> = p.units.iter().map(|u| u.name.as_str()).collect();
        let warm = cli_check(args, &manifest).map_err(|e| format!("vaultc: {e}"))?;
        judge(&warm, &names, &p.truth).map_err(|e| format!("warm-up answer is wrong: {e}"))?;
        setups.push(t.elapsed().as_secs_f64());
        project = Some(p);
    }
    let p = project.expect("at least one set-up");
    let setup_steal = setup_ticks.steal_share_since();
    let names: Vec<&str> = p.units.iter().map(|u| u.name.as_str()).collect();
    let probe_idx = probe_units(&p);
    let probe_dir = Path::new("probe");
    write_subset(&p, &probe_idx, probe_dir).map_err(|e| format!("writing the probe: {e}"))?;
    let probe_names: Vec<&str> = probe_idx.iter().map(|&i| names[i]).collect();
    let probe_truth: Vec<Truth> = probe_idx.iter().map(|&i| p.truth[i].clone()).collect();

    if args.trace {
        return traced(args, &p, &names, &manifest, out);
    }

    let min_samples = if args.smoke {
        1
    } else {
        samples_for_tail(TAIL)
    };
    let mut lat_ms = Vec::new();
    let mut round_rates = Vec::new();
    let mut restarts = Vec::new();
    let mut cpu_ms = 0.0;
    let run_ticks = CpuTicks::now();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds || lat_ms.len() < min_samples {
        let mut round_s = 0.0;
        for _ in 0..ROUND {
            out.attempted += 1;
            match cli_check(args, &manifest) {
                Ok(run) => {
                    lat_ms.push(run.wall.as_secs_f64() * 1000.0);
                    round_s += run.wall.as_secs_f64();
                    cpu_ms += run.cpu_ms;
                    out.judge("cold check", judge(&run, &names, &p.truth));
                }
                Err(e) => out.fail("cold check", e),
            }
        }
        round_rates.push(ROUND as f64 / round_s);
        // CLI restart probes: start-up to answer on the small probe project.
        for _ in 0..PROBES {
            out.attempted += 1;
            match cli_check(args, &probe_dir.join("vault.toml")) {
                Ok(probe) => {
                    restarts.push(probe.wall.as_secs_f64() * 1000.0);
                    out.judge("restart probe", judge(&probe, &probe_names, &probe_truth));
                }
                Err(e) => out.fail("restart probe", e),
            }
        }
    }
    EndToEnd {
        setups_s: setups,
        cpu_ms_per_op: cpu_ms / lat_ms.len().max(1) as f64,
        latencies_ms: lat_ms,
        tail: TAIL,
        round_rates,
        restarts_ms: restarts,
        peak_rss_mb: children_usage().maxrss_kb as f64 / 1024.0,
        setup_steal,
        run_steal: run_ticks.steal_share_since(),
    }
    .report(&mut out);
    eprintln!(
        "perfbench: cold-project: {} units, {} bytes",
        p.units.len(),
        p.bytes()
    );
    Ok(out)
}

/// The traced run: each operation is the real CLI check, then the same
/// project through `ProjectPlan::build`, an in-process `CheckService`, and
/// a per-unit replay of the front end and checker.
fn traced(
    args: &Args,
    p: &Project,
    names: &[&str],
    manifest: &Path,
    mut out: Outcome,
) -> Result<Outcome, String> {
    let punits: Vec<ProjectUnit> = p
        .units
        .iter()
        .map(|u| ProjectUnit::new(&u.name, &u.source))
        .collect();
    let wire: Vec<UnitIn> = p
        .units
        .iter()
        .map(|u| UnitIn {
            name: u.name.clone(),
            source: u.source.clone(),
        })
        .collect();
    let jobs = args.jobs();
    let mut tr = Tracer::new(Instant::now(), 0);
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds || out.attempted < 2 {
        out.attempted += 1;
        tr.request(|tr| {
            match tr.span("cli", |_| cli_check(args, manifest)) {
                Ok(run) => out.judge("cold check", judge(&run, names, &p.truth)),
                Err(e) => out.fail("cold check", e),
            }
            let plan = tr.span("project.plan", |_| {
                ProjectPlan::build(&punits, vault_syntax::DEFAULT_PARSER_DEPTH)
            });
            tr.add("project.units_parsed", punits.len() as f64);
            let units = wire.clone();
            let (svc, reports, wall) = tr.span("service.check_project", |_| {
                let svc = CheckService::new(ServiceConfig {
                    jobs,
                    cache_capacity: (units.len() * 2).max(1),
                    ..Default::default()
                });
                let (reports, wall) = svc.check_project(units);
                (svc, reports, wall)
            });
            let reply = proto::encode_check_project(None, &reports, wall);
            out.judge(
                "in-process check",
                oracle::units_reply(&reply, "check-project", names, &p.truth),
            );
            tr.add(
                "pool.check_us",
                reports.iter().map(|r| r.check_micros as f64).sum(),
            );
            tr.add("pool.capacity_us", wall as f64 * svc.workers() as f64);
            let empty = vault_server::Json::Obj(Vec::new());
            let status = proto::encode_status(None, &svc.status(), svc.workers(), 0, 0, None);
            status_counters(tr, &empty, &status);
            for &i in &plan.order {
                let u = &p.units[i];
                replay_unit(tr, &u.name, &plan.units[i].prelude, &u.source, false);
            }
        });
    }
    tr.write(Path::new("trace-cold-project.jsonl"))
        .map_err(|e| format!("writing spans: {e}"))?;
    out.metrics = tr.layer_metrics();
    Ok(out)
}
