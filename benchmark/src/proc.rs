//! Driving the `blossom` binary as a child process: one-shot commands
//! for `cold-cli`, a long-running `serve` child for `serve-mixed`.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Run `blossom ARGS…` to completion; `Ok(stdout)` when it exits 0.
pub fn run(blossom: &Path, args: &[&str]) -> Result<Vec<u8>, String> {
    let out = Command::new(blossom)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .map_err(|e| format!("spawning {}: {e}", blossom.display()))?;
    if out.status.success() {
        Ok(out.stdout)
    } else {
        Err(format!(
            "blossom {} exited with {}",
            args.first().unwrap_or(&""),
            out.status
        ))
    }
}

/// Largest peak resident set, in MB, among the children this process has
/// waited for so far.
#[cfg(target_os = "linux")]
pub fn children_peak_rss_mb() -> f64 {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs of
    /// which the first is `ru_maxrss` in kilobytes.
    #[repr(C)]
    struct Rusage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable, correctly sized and aligned
    // `struct rusage` for this target; getrusage only writes into it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc == 0 {
        usage.maxrss as f64 / 1024.0
    } else {
        0.0
    }
}

#[cfg(not(target_os = "linux"))]
pub fn children_peak_rss_mb() -> f64 {
    0.0
}

/// A `blossom serve` child on an ephemeral port. Dropping it shuts the
/// server down and waits for it, so no run leaves a process behind.
pub struct Server {
    child: Child,
    pub addr: String,
}

impl Server {
    /// Start the server at its default flags apart from the ephemeral
    /// address, the preloaded documents and a silenced access log.
    pub fn start(blossom: &Path, loads: &[(String, String)]) -> Result<Server, String> {
        let mut cmd = Command::new(blossom);
        cmd.args(["serve", "--addr", "127.0.0.1:0", "--access-log", "off"]);
        for (name, path) in loads {
            cmd.arg("--load").arg(format!("{name}={path}"));
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {} serve: {e}", blossom.display()))?;
        // The server prints its address once every --load has finished.
        let mut line = String::new();
        let stdout = child.stdout.take().expect("stdout was piped");
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = line.trim().rsplit(' ').next().unwrap_or("").to_string();
        if read.is_err() || !line.contains("listening on") || addr.is_empty() {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("blossom serve did not start (said {line:?})"));
        }
        Ok(Server { child, addr })
    }

    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Ask for a drain first; kill if the request cannot be delivered.
        if crate::http::Connection::open(&self.addr)
            .and_then(|mut c| c.request("POST", "/shutdown", b""))
            .is_err()
        {
            let _ = self.child.kill();
        }
        // A drained server exits on its own; do not wait on a stuck one.
        let deadline = Instant::now() + Duration::from_secs(10);
        while let Ok(None) = self.child.try_wait() {
            if Instant::now() >= deadline {
                let _ = self.child.kill();
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.wait();
    }
}
