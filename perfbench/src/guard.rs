//! Running one measured unit so that a fault in the system cannot stop the
//! benchmark: a unit that panics fails, and so does one that never returns.
//!
//! A DSM worker that panics leaves the other worker waiting forever at its
//! next barrier or lock, so `Dsm::run` never returns.  Each unit therefore
//! runs on a thread of its own, and the benchmark waits for it only until
//! [`UNIT_LIMIT`]; a unit still running then is counted as failed and left
//! behind, blocked, until the process exits.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Mutex;
use std::time::Duration;

/// How long a unit may run: several times the slowest unit (an application
/// run of about 3 s) and short enough that a run with a few abandoned units
/// still ends well within its time limit.
pub const UNIT_LIMIT: Duration = Duration::from_secs(20);

/// The message of the last panic on any thread.
static LAST_PANIC: Mutex<Option<String>> = Mutex::new(None);

/// Installs a panic hook that remembers each panic's message (a unit
/// abandoned at its deadline reports the panic that stalled it) and then
/// prints it as the default hook does.
pub fn install_panic_hook() {
    let print = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if let Ok(mut last) = LAST_PANIC.lock() {
            *last = Some(info.to_string());
        }
        print(info);
    }));
}

fn last_panic() -> String {
    LAST_PANIC
        .lock()
        .ok()
        .and_then(|mut last| last.take())
        .unwrap_or_else(|| "no panic message".into())
}

/// Runs `job` on its own thread.  Returns its result, or the panic message
/// if it panicked or had not finished after [`UNIT_LIMIT`].
pub fn run_unit<T: Send + 'static>(job: impl FnOnce() -> T + Send + 'static) -> Result<T, String> {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(catch_unwind(AssertUnwindSafe(job)));
    });
    match rx.recv_timeout(UNIT_LIMIT) {
        Ok(Ok(value)) => {
            let _ = handle.join();
            Ok(value)
        }
        Ok(Err(_)) | Err(RecvTimeoutError::Disconnected) => {
            let _ = handle.join();
            Err(last_panic())
        }
        // The thread is blocked for good and cannot be joined.
        Err(RecvTimeoutError::Timeout) => Err(format!(
            "no result within {UNIT_LIMIT:?}; last panic: {}",
            last_panic()
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_unit_fails_with_its_message() {
        install_panic_hook();
        assert_eq!(run_unit(|| 7), Ok(7));
        let err = run_unit(|| -> u32 { panic!("worker fell over") }).unwrap_err();
        assert!(err.contains("worker fell over"), "{err}");
    }
}
