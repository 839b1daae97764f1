//! The server under test, run as a separate process: the ladder binary
//! re-executes itself with `--serve-child`, so the load generator and the
//! server never share an address space, an allocator, or a scheduler
//! queue beyond what the OS shares between processes.

use gs_serve::{Client, ServeConfig, Server};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The child's entry point: serve on `socket` with periodic checkpoints
/// off and the default worker budget until stdin closes, then stop
/// without a final checkpoint (the benchmark discards the state).
pub fn serve(socket: &Path, state_dir: &Path) -> Result<(), String> {
    let server = Server::start(ServeConfig {
        state_dir: state_dir.to_path_buf(),
        unix: Some(socket.to_path_buf()),
        checkpoint_every: Duration::ZERO,
        quiet: true,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))?;
    // The parent holds the write end of our stdin; EOF (including the
    // parent dying) is the stop signal.
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    server.abort();
    Ok(())
}

/// A running child server. Dropping it stops the child and waits for it.
pub struct ServerProc {
    child: Option<Child>,
    socket: PathBuf,
}

impl ServerProc {
    /// Spawns the child on a fresh state directory under `work`.
    pub fn spawn(work: &Path) -> Result<ServerProc, String> {
        let state = work.join("state");
        let _ = std::fs::remove_dir_all(&state);
        let socket = work.join("s.sock");
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let child = Command::new(exe)
            .arg("--serve-child")
            .arg(&socket)
            .arg(&state)
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning the server: {e}"))?;
        Ok(ServerProc {
            child: Some(child),
            socket,
        })
    }

    /// Connects once the socket accepts, polling for up to 30 s.
    pub fn connect(&mut self) -> Result<Client, String> {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match Client::connect_unix(&self.socket) {
                Ok(c) => return Ok(c),
                Err(e) => {
                    if let Some(status) = self.child.as_mut().and_then(|c| c.try_wait().ok()?) {
                        return Err(format!("server exited during start-up: {status}"));
                    }
                    if Instant::now() > deadline {
                        return Err(format!("server never accepted: {e}"));
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        }
    }

    /// The child's peak resident set (`VmHWM`), MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let pid = self
            .child
            .as_ref()
            .map(Child::id)
            .ok_or("server already stopped")?;
        let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
            .map_err(|e| format!("reading the server's /proc status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| "no VmHWM line in /proc status".to_string())
    }

    /// Stops the child (closes its stdin) and waits for it to exit.
    pub fn stop(mut self) -> Result<(), String> {
        self.finish(false)
    }

    fn finish(&mut self, kill: bool) -> Result<(), String> {
        let Some(mut child) = self.child.take() else {
            return Ok(());
        };
        drop(child.stdin.take());
        if kill {
            let _ = child.kill();
        }
        let status = child
            .wait()
            .map_err(|e| format!("waiting for the server: {e}"))?;
        if !kill && !status.success() {
            return Err(format!("server exited with {status}"));
        }
        Ok(())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.finish(true);
    }
}
