//! `perfbench` — end-to-end and per-layer benchmark for `vaultc` and
//! `vaultd`.
//!
//! ```text
//! perfbench --workload cold-project|edit-session|serve-mix --seed N
//!           --seconds S --trace 0|1 --bin-dir DIR --work-dir DIR [--smoke]
//! ```
//!
//! Every workload drives the real release binaries as child processes,
//! checks every answer against ground truth built apart from the checker
//! (see `oracle`), and prints one JSON line as the last line of stdout:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! run also calls each layer's public functions in-process, records a
//! span per call (`trace`), writes the spans to the work directory, and
//! prints the per-layer metrics instead.

mod cold;
mod edit;
mod gen;
mod oracle;
mod proc;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub bin_dir: PathBuf,
    pub work_dir: PathBuf,
    /// Small inputs and short runs, every oracle on (for the benchmark's
    /// own tests).
    pub smoke: bool,
}

impl Args {
    /// Worker threads for the program: one per core, as a user would run it.
    pub fn jobs(&self) -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
    }
}

/// What one run reports.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted in the measured part of the run.
    pub attempted: u64,
    /// Operations that got no usable answer (transport failure, error
    /// reply, unexpected exit status).
    pub failed: u64,
    /// Oracle violations on operations that did answer.
    pub wrong: Vec<String>,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Record an oracle verdict for one operation.
    pub fn judge(&mut self, what: &str, verdict: Result<(), String>) {
        if let Err(e) = verdict {
            if self.wrong.len() < 20 {
                eprintln!("perfbench: wrong answer ({what}): {e}");
            }
            self.wrong.push(format!("{what}: {e}"));
        }
    }

    /// Record an operation that got no usable answer.
    pub fn fail(&mut self, what: &str, err: impl std::fmt::Display) {
        if self.failed < 20 {
            eprintln!("perfbench: failed ({what}): {err}");
        }
        self.failed += 1;
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                // `+ 0.0` turns a negative zero into zero.
                let v = if v.is_finite() { *v + 0.0 } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.wrong.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The end-to-end figures of one untraced run, as measured.
pub struct EndToEnd {
    /// Wall time of each set-up, s.
    pub setups_s: Vec<f64>,
    /// Latency of each measured operation, ms.
    pub latencies_ms: Vec<f64>,
    /// The percentile reported as `latency_tail_ms`.
    pub tail: f64,
    /// Operations per second of each round.
    pub round_rates: Vec<f64>,
    /// Each restart's spawn-to-first-answer time, ms.
    pub restarts_ms: Vec<f64>,
    pub cpu_ms_per_op: f64,
    pub peak_rss_mb: f64,
    /// Share of CPU time stolen by the hypervisor during the set-ups and
    /// during the measured part of the run.
    pub setup_steal: f64,
    pub run_steal: f64,
}

impl EndToEnd {
    /// Report every end-to-end metric. Times are normalised for CPU time
    /// the hypervisor stole from this machine while it ran: a time is
    /// scaled by `1 - s` and a rate divided by it, where `s` is the stolen
    /// share measured over the same interval. On a machine that is not
    /// shared, `s` is 0 and the figures are as measured.
    pub fn report(&self, out: &mut Outcome) {
        use stats::{median, quantile};
        let setup = 1.0 - self.setup_steal;
        let run = 1.0 - self.run_steal;
        let lat = &self.latencies_ms;
        out.metric("setup_s", median(&self.setups_s) * setup, "s");
        out.metric("latency_p50_ms", median(lat) * run, "ms");
        out.metric("latency_tail_ms", quantile(lat, self.tail) * run, "ms");
        out.metric("ops_per_s", median(&self.round_rates) / run, "1/s");
        out.metric("restart_ms", median(&self.restarts_ms) * run, "ms");
        out.metric("cpu_ms_per_op", self.cpu_ms_per_op * run, "ms");
        out.metric("peak_rss_mb", self.peak_rss_mb, "MiB");
        eprintln!(
            "perfbench: {} operations; stolen CPU share {:.4} in set-up, {:.4} measured; \
             as measured: setup {:.4} s, p50 {:.3} ms, tail {:.3} ms, {:.2} ops/s, \
             restart {:.3} ms, cpu {:.3} ms/op",
            lat.len(),
            self.setup_steal,
            self.run_steal,
            median(&self.setups_s),
            median(lat),
            quantile(lat, self.tail),
            median(&self.round_rates),
            median(&self.restarts_ms),
            self.cpu_ms_per_op,
        );
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut bin_dir = None;
    let mut work_dir = None;
    let mut smoke = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--bin-dir" => bin_dir = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
        bin_dir: bin_dir.ok_or("--bin-dir is required")?,
        work_dir: work_dir.ok_or("--work-dir is required")?,
        smoke,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for bin in ["vaultc", "vaultd"] {
        if !args.bin_dir.join(bin).is_file() {
            eprintln!("perfbench: {bin} not found in {}", args.bin_dir.display());
            return ExitCode::from(2);
        }
    }
    // Absolute binary paths, then work inside the run's own directory so
    // socket paths stay short whatever the checkout's location.
    let bin_dir = match args.bin_dir.canonicalize() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let args = Args { bin_dir, ..args };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir)
        .and_then(|()| std::env::set_current_dir(&args.work_dir))
    {
        eprintln!("perfbench: work dir {}: {e}", args.work_dir.display());
        return ExitCode::from(2);
    }
    let result = match args.workload.as_str() {
        "cold-project" => cold::run(&args),
        "edit-session" => edit::run(&args),
        "serve-mix" => serve::run(&args),
        other => Err(format!("unknown workload `{other}`")),
    };
    match result {
        Ok(outcome) => {
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
