//! Graceful-shutdown signal flag, std-only.
//!
//! `SIGTERM`/`SIGINT` (ctrl-c) set a process-wide atomic that long
//! loops poll; nothing else happens in the handler, which keeps it
//! async-signal-safe (one relaxed store). A *second* signal restores
//! the default disposition first, so a stuck shutdown can still be
//! killed the ordinary way.
//!
//! The registration goes through the C `signal` function directly —
//! the libc symbol is always linked — because pulling in a signal
//! crate is out of bounds for this workspace. On non-Unix targets
//! installation is a no-op and the flag simply never trips.

use std::sync::atomic::{AtomicBool, Ordering};

static REQUESTED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod sys {
    pub const SIGINT: i32 = 2;
    pub const SIGTERM: i32 = 15;
    pub const SIG_DFL: usize = 0;

    extern "C" {
        pub fn signal(signum: i32, handler: usize) -> usize;
    }

    pub extern "C" fn on_signal(signum: i32) {
        // Re-arm to the default disposition so a second signal of the
        // same kind terminates immediately instead of being swallowed.
        // SAFETY: `signal` is async-signal-safe (POSIX lists it), so a
        // handler may call it. This handler does only that and one
        // relaxed store to a lock-free `AtomicBool`: no allocation, no
        // lock, nothing a thread it interrupted may hold. `SIG_DFL` is
        // the disposition's pointer-sized `sighandler_t` value, 0.
        unsafe {
            signal(signum, SIG_DFL);
        }
        super::REQUESTED.store(true, std::sync::atomic::Ordering::Relaxed);
    }
}

/// Installs the SIGTERM/SIGINT handlers. Idempotent; safe to call from
/// any binary that wants [`requested`] to mean something.
pub fn install() {
    #[cfg(unix)]
    // SAFETY: `signal` is async-signal-safe and only swaps the
    // disposition. The handler it installs only re-arms `SIG_DFL` and
    // makes one relaxed store to a lock-free `AtomicBool`, both safe in
    // a signal context. Its address goes through `*const ()` to a
    // `usize`, which is pointer-sized like C's `sighandler_t`, and
    // `extern "C" fn(i32)` is the handler type `signal` expects.
    unsafe {
        let handler = sys::on_signal as extern "C" fn(i32) as *const () as usize;
        sys::signal(sys::SIGINT, handler);
        sys::signal(sys::SIGTERM, handler);
    }
}

/// True once a shutdown signal has arrived (or [`request`] was called).
pub fn requested() -> bool {
    REQUESTED.load(Ordering::Relaxed)
}

/// Trips the flag programmatically (tests, or an in-process trigger).
pub fn request() {
    REQUESTED.store(true, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The flag is the process's: one test at a time sets it.
    static FLAG: Mutex<()> = Mutex::new(());

    #[test]
    fn request_trips_the_flag() {
        let _flag = FLAG.lock().unwrap_or_else(|e| e.into_inner());
        install();
        request();
        assert!(requested());
    }

    /// The installed handler is what flips the flag: SIGTERM raised
    /// in-process runs it on this thread before `raise` returns, and
    /// the process lives on (the handler re-arms the default, so the
    /// handler is installed again afterwards for any later test).
    #[cfg(unix)]
    #[test]
    fn a_raised_sigterm_flips_the_flag() {
        extern "C" {
            fn raise(signum: i32) -> i32;
        }
        let _flag = FLAG.lock().unwrap_or_else(|e| e.into_inner());
        install();
        REQUESTED.store(false, Ordering::Relaxed);
        // SAFETY: `raise` takes a signal number and delivers it to the
        // calling thread; SIGTERM's handler is `on_signal`, installed
        // just above, so the signal only sets the flag.
        let rc = unsafe { raise(sys::SIGTERM) };
        assert_eq!(rc, 0);
        assert!(requested());
        install();
    }
}
