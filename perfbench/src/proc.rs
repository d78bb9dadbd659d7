//! Child processes of the benchmark: the `vaultc` and `vaultd` binaries,
//! their CPU time and peak memory, and a minimal JSON-lines client.

use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` as laid out on 64-bit Linux.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sysconf(name: i32) -> i64;
}

const RUSAGE_CHILDREN: i32 = -1;
const SC_CLK_TCK: i32 = 2;

/// Resource use summed over every child this process has waited for.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChildUsage {
    /// User plus system CPU time, microseconds.
    pub cpu_us: u64,
    /// Largest peak resident set of any waited-for child, KiB.
    pub maxrss_kb: u64,
}

pub fn children_usage() -> ChildUsage {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `ru` is a valid, writable `struct rusage` (the layout above
    // matches 64-bit Linux), and RUSAGE_CHILDREN is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut ru) };
    if rc != 0 {
        return ChildUsage::default();
    }
    let us = |t: &Timeval| (t.sec.max(0) as u64) * 1_000_000 + t.usec.max(0) as u64;
    ChildUsage {
        cpu_us: us(&ru.utime) + us(&ru.stime),
        maxrss_kb: ru.maxrss.max(0) as u64,
    }
}

/// CPU time (user + system) a live process has used so far, ms.
pub fn proc_cpu_ms(pid: u32) -> io::Result<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| io::Error::other("malformed /proc stat"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the whole line; `rest`
    // starts at field 3.
    let ticks: u64 = fields
        .get(11..13)
        .ok_or_else(|| io::Error::other("short /proc stat"))?
        .iter()
        .map(|f| f.parse::<u64>().unwrap_or(0))
        .sum();
    // SAFETY: sysconf takes no pointers; _SC_CLK_TCK is a valid name.
    let hz = unsafe { sysconf(SC_CLK_TCK) }.max(1) as f64;
    Ok(ticks as f64 * 1000.0 / hz)
}

/// Peak resident set (`VmHWM`) of a live process, KiB.
pub fn proc_hwm_kb(pid: u32) -> io::Result<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| io::Error::other("no VmHWM"))
}

/// A reading of the machine-wide CPU time counters in `/proc/stat`:
/// (ticks stolen by the hypervisor, all ticks), summed over every CPU.
#[derive(Clone, Copy, Debug)]
pub struct CpuTicks {
    steal: u64,
    total: u64,
}

impl CpuTicks {
    pub fn now() -> CpuTicks {
        let line = std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| s.lines().next().map(str::to_string))
            .unwrap_or_default();
        let fields: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .map(|f| f.parse().unwrap_or(0))
            .collect();
        CpuTicks {
            // user nice system idle iowait irq softirq steal guest guest_nice;
            // guest time is already counted in user time.
            steal: fields.get(7).copied().unwrap_or(0),
            total: fields.iter().take(8).sum(),
        }
    }

    /// The share of all CPU time since `self` that the hypervisor gave to
    /// other guests while this one wanted to run (0 on bare metal).
    pub fn steal_share_since(&self) -> f64 {
        let now = CpuTicks::now();
        let total = now.total.saturating_sub(self.total);
        if total == 0 {
            return 0.0;
        }
        (now.steal.saturating_sub(self.steal) as f64 / total as f64).min(0.9)
    }
}

/// A child that is killed and reaped when dropped, so no process
/// outlives the benchmark on any exit path.
pub struct Reaped(pub Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        if let Ok(None) = self.0.try_wait() {
            let _ = self.0.kill();
        }
        let _ = self.0.wait();
    }
}

/// A JSON-lines connection to a daemon.
pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    line: String,
}

impl Conn {
    pub fn connect(path: &Path) -> io::Result<Conn> {
        let s = UnixStream::connect(path)?;
        s.set_read_timeout(Some(Duration::from_secs(120)))?;
        Ok(Conn {
            reader: BufReader::with_capacity(1 << 16, s.try_clone()?),
            writer: s,
            line: String::new(),
        })
    }

    /// Send one request line (already newline-terminated) and return the
    /// reply line.
    pub fn roundtrip(&mut self, request: &[u8]) -> io::Result<&str> {
        self.writer.write_all(request)?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        Ok(self.line.trim_end())
    }
}

/// A running `vaultd` on a Unix socket in the current directory.
pub struct Daemon {
    child: Reaped,
    socket: std::path::PathBuf,
}

impl Daemon {
    /// Spawn `vaultd` and wait until its socket accepts connections.
    pub fn spawn(bin_dir: &Path, socket: &str, extra: &[&str]) -> io::Result<Daemon> {
        let socket = std::path::PathBuf::from(socket);
        let _ = std::fs::remove_file(&socket);
        let spawned = Instant::now();
        let child = Command::new(bin_dir.join("vaultd"))
            .arg("--socket")
            .arg(&socket)
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()?;
        let mut d = Daemon {
            child: Reaped(child),
            socket,
        };
        let deadline = spawned + Duration::from_secs(30);
        loop {
            if d.socket.exists() {
                if let Ok(s) = UnixStream::connect(&d.socket) {
                    drop(s);
                    return Ok(d);
                }
            }
            if let Some(st) = d.child.0.try_wait()? {
                return Err(io::Error::other(format!("vaultd exited early: {st}")));
            }
            if Instant::now() > deadline {
                return Err(io::Error::other("vaultd did not start listening"));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.0.id()
    }

    pub fn connect(&self) -> io::Result<Conn> {
        Conn::connect(&self.socket)
    }

    /// CPU time used so far, ms.
    pub fn cpu_ms(&self) -> f64 {
        proc_cpu_ms(self.pid()).unwrap_or(0.0)
    }

    /// Peak resident set so far, KiB.
    pub fn hwm_kb(&self) -> u64 {
        proc_hwm_kb(self.pid()).unwrap_or(0)
    }

    /// Ask the daemon to shut down and wait for it to exit.
    pub fn shutdown(mut self) -> io::Result<()> {
        if let Ok(mut c) = self.connect() {
            let _ = c.roundtrip(b"{\"op\":\"shutdown\"}\n");
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Some(st) = self.child.0.try_wait()? {
                return if st.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!("vaultd exited with {st}")))
                };
            }
            if Instant::now() > deadline {
                return Err(io::Error::other("vaultd did not shut down"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// Escape `s` as the body of a JSON string.
fn json_escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// `{"name":…,"source":…}`.
pub fn unit_json(out: &mut String, name: &str, source: &str) {
    out.push_str("{\"name\":\"");
    json_escape_into(out, name);
    out.push_str("\",\"source\":\"");
    json_escape_into(out, source);
    out.push_str("\"}");
}
