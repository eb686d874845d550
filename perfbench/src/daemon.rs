//! The `sas serve` child process.

use std::fs::File;
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use sas_store::client::Client;

/// A running daemon. Dropping it kills the process and waits for it.
pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
    pub pid: u32,
}

impl Daemon {
    /// Starts `sas serve <dir>` on an ephemeral port with the CLI
    /// defaults, its stderr going to `log`, and waits for the readiness
    /// line that carries the bound address.
    pub fn start(sas: &Path, dir: &Path, log: &Path) -> Result<Daemon, String> {
        let err_file = File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let child = Command::new(sas)
            .arg("serve")
            .arg(dir)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(err_file)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", sas.display()))?;
        let pid = child.id();
        crate::sys::track_child(pid);
        let mut daemon = Daemon {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            pid,
        };
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let text = std::fs::read_to_string(log).unwrap_or_default();
            if let Some(addr) = text
                .lines()
                .find_map(|l| l.split("listening on ").nth(1))
                .and_then(|a| a.trim().parse().ok())
            {
                daemon.addr = addr;
                return Ok(daemon);
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited during start-up ({status}): {text}"));
            }
            if Instant::now() > deadline {
                return Err("daemon did not report its address within 60 s".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Asks the daemon to shut down and waits for it to exit (killing it
    /// after 20 s).
    pub fn stop(mut self) -> Result<(), String> {
        let asked = Client::connect(self.addr).and_then(|mut c| c.shutdown());
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(e.to_string()),
            }
        }
        Err(format!("daemon ignored shutdown ({asked:?}); killed"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        crate::sys::untrack_child(self.pid);
    }
}
