//! Readiness waits: a `poll(2)` binding and the wake pipe that lets other
//! threads interrupt one.
//!
//! Every shard thread blocks in one [`wait`] on its sockets plus its
//! [`WakeReader`]; a producer that hands the shard work (a send command, a
//! connector outcome, an accepted socket, shutdown) calls [`Waker::wake`].
//! So a shard runs when a socket or a producer has something for it, or
//! when its nearest timer is due — never on a fixed cadence.
//!
//! This is the only module in the workspace allowed `unsafe` code: the
//! one foreign call to `poll`.
#![allow(unsafe_code)]

use std::ffi::c_int;
use std::io::{self, ErrorKind, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Readable (or, on a listening socket, a connection to accept).
pub(crate) const POLLIN: i16 = 0x001;
/// Writable without blocking.
pub(crate) const POLLOUT: i16 = 0x004;

#[cfg(any(target_os = "linux", target_os = "android"))]
type Nfds = std::ffi::c_ulong;
#[cfg(not(any(target_os = "linux", target_os = "android")))]
type Nfds = std::ffi::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
}

/// `struct pollfd`: one descriptor, the events asked for, and the events
/// the kernel reported (errors and hang-ups are always reported).
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

impl PollFd {
    pub(crate) fn new(fd: &impl AsRawFd, events: i16) -> Self {
        PollFd {
            fd: fd.as_raw_fd(),
            events,
            revents: 0,
        }
    }

    /// Whether the last [`wait`] reported anything for this descriptor.
    pub(crate) fn ready(&self) -> bool {
        self.revents != 0
    }
}

/// Blocks until a descriptor in `fds` is ready or `timeout` passes
/// (`None` waits indefinitely); [`PollFd::ready`] then tells which. The
/// timeout rounds up to whole milliseconds, so a timer is never polled
/// before it is due, and a signal interrupting the wait reads as nothing
/// ready. `poll` itself fails only on resource exhaustion: then this
/// sleeps out the timeout (20 ms without one) and reports every
/// descriptor ready, so the caller degrades to a timed scan instead of
/// spinning.
pub(crate) fn wait(fds: &mut [PollFd], timeout: Option<Duration>) {
    let timeout_ms = timeout.map_or(-1, |t| {
        c_int::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX)
    });
    let nfds = Nfds::try_from(fds.len()).expect("a descriptor count fits nfds_t");
    // SAFETY: `PollFd` is `#[repr(C)]` with the field types and order of
    // `struct pollfd`; the pointer and `nfds` describe exactly the live,
    // exclusively borrowed slice `fds`, and the kernel writes only the
    // `revents` fields within it before returning.
    let n = unsafe { poll(fds.as_mut_ptr(), nfds, timeout_ms) };
    if n < 0 && io::Error::last_os_error().kind() != ErrorKind::Interrupted {
        thread::sleep(
            timeout
                .unwrap_or(Duration::from_millis(20))
                .max(Duration::from_millis(1)),
        );
        for fd in fds.iter_mut() {
            fd.revents = fd.events;
        }
    }
}

/// The producer half of a shard's wake pipe; cheap to share as
/// `Arc<Waker>`.
#[derive(Debug)]
pub(crate) struct Waker {
    tx: UnixStream,
}

/// The shard's half: polled for `POLLIN`, drained once per wake.
#[derive(Debug)]
pub(crate) struct WakeReader {
    rx: UnixStream,
}

/// A connected wake pipe.
///
/// # Errors
///
/// Socket-pair creation or switching it nonblocking failing.
pub(crate) fn wake_pipe() -> io::Result<(Arc<Waker>, WakeReader)> {
    let (tx, rx) = UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((Arc::new(Waker { tx }), WakeReader { rx }))
}

impl Waker {
    /// Makes the reader's next (or current) [`wait`] return. Call it
    /// *after* publishing the work: the reader drains the pipe before it
    /// looks for work, so work published before its byte is never missed.
    pub(crate) fn wake(&self) {
        // A full pipe already holds a wake; a closed one means the reader
        // is gone. Neither needs this byte.
        let _ = (&self.tx).write(&[1]);
    }
}

impl WakeReader {
    /// The descriptor entry to poll.
    pub(crate) fn poll_fd(&self) -> PollFd {
        PollFd::new(&self.rx, POLLIN)
    }

    /// Consumes every pending wake. Run it before looking for work.
    pub(crate) fn drain(&self) {
        let mut buf = [0u8; 256];
        while matches!((&self.rx).read(&mut buf), Ok(n) if n > 0) {}
    }
}

#[cfg(test)]
mod tests {
    use std::time::Instant;

    use super::*;

    #[test]
    fn times_out_when_nothing_is_ready() {
        let (_waker, reader) = wake_pipe().unwrap();
        let mut fds = [reader.poll_fd()];
        let start = Instant::now();
        wait(&mut fds, Some(Duration::from_millis(20)));
        assert!(start.elapsed() >= Duration::from_millis(20));
        assert!(!fds[0].ready());
    }

    #[test]
    fn a_wake_interrupts_the_wait_until_drained() {
        let (waker, reader) = wake_pipe().unwrap();
        for _ in 0..5 {
            waker.wake();
        }
        let mut fds = [reader.poll_fd()];
        wait(&mut fds, None);
        assert!(fds[0].ready());
        reader.drain();
        let mut fds = [reader.poll_fd()];
        wait(&mut fds, Some(Duration::ZERO));
        assert!(!fds[0].ready());
        // A wake after the drain is seen again.
        waker.wake();
        let mut fds = [reader.poll_fd()];
        wait(&mut fds, Some(Duration::ZERO));
        assert!(fds[0].ready());
    }

    /// Producers publishing and waking flat out, more of them than there
    /// are CPUs so the consumer gets preempted inside `drain`, against a
    /// consumer that drains, looks and waits: whenever its wait times out,
    /// nothing may have been published that it has not seen.
    #[test]
    fn no_wake_is_lost_to_a_concurrent_drain() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        const PRODUCERS: usize = 8;
        let (waker, reader) = wake_pipe().unwrap();
        let published = Arc::new(AtomicUsize::new(0));
        let running = Arc::new(AtomicUsize::new(PRODUCERS));
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|_| {
                let (waker, published, running) = (
                    Arc::clone(&waker),
                    Arc::clone(&published),
                    Arc::clone(&running),
                );
                thread::spawn(move || {
                    let stop = Instant::now() + Duration::from_millis(300);
                    while Instant::now() < stop {
                        published.fetch_add(1, Ordering::SeqCst);
                        waker.wake();
                    }
                    running.fetch_sub(1, Ordering::SeqCst);
                    waker.wake();
                })
            })
            .collect();
        loop {
            reader.drain();
            let done = running.load(Ordering::SeqCst) == 0;
            let seen = published.load(Ordering::SeqCst);
            if done {
                break;
            }
            let mut fds = [reader.poll_fd()];
            wait(&mut fds, Some(Duration::from_secs(2)));
            assert!(
                fds[0].ready() || published.load(Ordering::SeqCst) == seen,
                "a wake was lost: {seen} seen, more published, and the wait timed out"
            );
        }
        for producer in producers {
            producer.join().unwrap();
        }
    }
}
