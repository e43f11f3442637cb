//! [`Doorbell`]: one wait for several producers. A daemon loop that must
//! wake for inbound frames *and* for transport completions blocks on one
//! doorbell both ring, instead of polling one source on a timeout while
//! the other waits.

use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Duration;

/// A rung flag and a condition variable. A ring that lands while nobody
/// waits is kept, so a wait after it returns at once: a producer that
/// publishes its work *before* ringing can never be missed.
#[derive(Debug, Default)]
pub struct Doorbell {
    rung: Mutex<bool>,
    bell: Condvar,
}

impl Doorbell {
    /// A silent doorbell.
    pub fn new() -> Self {
        Doorbell::default()
    }

    /// Rings: wakes a waiter, or makes the next [`Doorbell::wait`]
    /// return at once. Repeated rings before a wait coalesce.
    pub fn ring(&self) {
        let mut rung = self.rung.lock().unwrap_or_else(PoisonError::into_inner);
        if !*rung {
            *rung = true;
            self.bell.notify_one();
        }
    }

    /// Blocks until the doorbell rings or `timeout` passes, and silences
    /// it. Returns whether it had rung.
    pub fn wait(&self, timeout: Duration) -> bool {
        let rung = self.rung.lock().unwrap_or_else(PoisonError::into_inner);
        let (mut rung, _) = self
            .bell
            .wait_timeout_while(rung, timeout, |rung| !*rung)
            .unwrap_or_else(PoisonError::into_inner);
        std::mem::take(&mut *rung)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn a_ring_before_the_wait_is_kept_and_coalesced() {
        let bell = Doorbell::new();
        bell.ring();
        bell.ring();
        assert!(bell.wait(Duration::from_secs(5)));
        // Both rings were one: the next wait times out.
        assert!(!bell.wait(Duration::from_millis(10)));
    }

    #[test]
    fn a_ring_from_another_thread_wakes_the_waiter() {
        let bell = Arc::new(Doorbell::new());
        let ringer = Arc::clone(&bell);
        let start = Instant::now();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            ringer.ring();
        });
        assert!(bell.wait(Duration::from_secs(5)));
        assert!(start.elapsed() < Duration::from_secs(4));
        handle.join().unwrap();
    }
}
