//! Thin FFI shim over the kernel interface the reactor needs: `epoll` for
//! readiness notification.
//!
//! This follows the repo's offline-deps idiom (`qdb_workload::rng`, the
//! mutex helpers): instead of pulling in the `libc` crate we declare the four
//! symbols ourselves. `std` already links the platform C library on
//! Linux, so this adds no dependency — just a typed view of what is
//! already in the address space.
//!
//! Everything here is Linux-specific by design (the readiness loop is
//! built on epoll). Porting to another unix means adding a `kqueue` or
//! `poll(2)` backend with the same `Poller` surface.

#[cfg(not(target_os = "linux"))]
compile_error!(
    "qdb-server's event loop is built on Linux epoll (crates/server/src/sys.rs); \
     to port it, add a kqueue/poll(2) Poller with the same API"
);

use std::io;
use std::os::fd::RawFd;
use std::os::raw::c_int;

/// Mirror of `struct epoll_event`. The kernel ABI packs it on x86-64
/// (12 bytes: `u32` events + unaligned `u64` data); other architectures
/// use natural alignment.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
pub(crate) struct EpollEvent {
    pub events: u32,
    pub data: u64,
}

pub(crate) const EPOLLIN: u32 = 0x001;
pub(crate) const EPOLLOUT: u32 = 0x004;
pub(crate) const EPOLLERR: u32 = 0x008;
pub(crate) const EPOLLHUP: u32 = 0x010;
pub(crate) const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLL_CLOEXEC: c_int = 0o2000000;

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
}

/// One readiness event, unpacked out of the kernel's packed struct.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    /// The `u64` registered with the fd (the reactor's slot token).
    pub token: u64,
    pub readable: bool,
    pub writable: bool,
    /// `EPOLLHUP`/`EPOLLERR`/`EPOLLRDHUP` — the transport is done or
    /// half-closed; a read will observe the condition precisely.
    pub hangup: bool,
}

/// Owned epoll instance: register interest per fd, wait for readiness.
///
/// Level-triggered (the epoll default) on purpose: the reactor always
/// reads/writes to `WouldBlock`, and deregistering interest while a
/// connection is paused means no busy re-delivery.
pub(crate) struct Poller {
    epfd: RawFd,
}

impl Poller {
    pub(crate) fn new() -> io::Result<Poller> {
        // SAFETY: plain syscall, no pointers involved.
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, interest: Option<(u64, bool, bool)>) -> io::Result<()> {
        let mut ev = EpollEvent { events: 0, data: 0 };
        let evp = match interest {
            Some((token, readable, writable)) => {
                let mut events = EPOLLRDHUP;
                if readable {
                    events |= EPOLLIN;
                }
                if writable {
                    events |= EPOLLOUT;
                }
                ev.events = events;
                ev.data = token;
                &mut ev as *mut EpollEvent
            }
            None => std::ptr::null_mut(),
        };
        // SAFETY: `evp` is null (DEL) or points at `ev`, which outlives
        // the call; the kernel reads it before returning.
        let rc = unsafe { epoll_ctl(self.epfd, op, fd, evp) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    pub(crate) fn add(
        &self,
        fd: RawFd,
        token: u64,
        readable: bool,
        writable: bool,
    ) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, Some((token, readable, writable)))
    }

    pub(crate) fn modify(
        &self,
        fd: RawFd,
        token: u64,
        readable: bool,
        writable: bool,
    ) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, Some((token, readable, writable)))
    }

    pub(crate) fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, None)
    }

    /// Wait up to `timeout_ms` (`-1` blocks) and append readiness events.
    pub(crate) fn wait(&self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
        const MAX_EVENTS: usize = 1024;
        let mut raw: Vec<EpollEvent> = Vec::with_capacity(MAX_EVENTS);
        // SAFETY: the spare capacity is MAX_EVENTS epoll_event slots; the
        // kernel writes at most MAX_EVENTS entries and returns the count,
        // which bounds the set_len below.
        let n = unsafe {
            epoll_wait(
                self.epfd,
                raw.as_mut_ptr(),
                MAX_EVENTS as c_int,
                timeout_ms as c_int,
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(()); // EINTR: just report no events
            }
            return Err(err);
        }
        // SAFETY: the kernel initialized the first `n` entries.
        unsafe { raw.set_len(n as usize) };
        for ev in &raw {
            // Copy fields out: the struct is packed on x86-64, so no refs.
            let bits = ev.events;
            let token = ev.data;
            events.push(Event {
                token,
                readable: bits & EPOLLIN != 0,
                writable: bits & EPOLLOUT != 0,
                hangup: bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
            });
        }
        Ok(())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: we own epfd and close it exactly once.
        unsafe { close(self.epfd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn poller_reports_readability_on_a_socketpair() {
        let poller = Poller::new().unwrap();
        let (mut a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        poller.add(b.as_raw_fd(), 42, true, false).unwrap();

        // Nothing written yet: a zero-timeout wait sees no events.
        let mut events = Vec::new();
        poller.wait(&mut events, 0).unwrap();
        assert!(events.iter().all(|e| e.token != 42 || !e.readable));

        a.write_all(b"x").unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, 1000).unwrap();
        let ev = events.iter().find(|e| e.token == 42).expect("event");
        assert!(ev.readable);

        // Level-triggered: still readable until drained.
        let mut events = Vec::new();
        poller.wait(&mut events, 0).unwrap();
        assert!(events.iter().any(|e| e.token == 42 && e.readable));
        let mut buf = [0u8; 8];
        let mut bref = &b;
        assert_eq!(bref.read(&mut buf).unwrap(), 1);

        poller.delete(b.as_raw_fd()).unwrap();
        drop(a);
        let mut events = Vec::new();
        poller.wait(&mut events, 0).unwrap();
        assert!(events.iter().all(|e| e.token != 42));
    }

    #[test]
    fn poller_reports_writability_and_modify_switches_interest() {
        let poller = Poller::new().unwrap();
        let (a, _b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        poller.add(a.as_raw_fd(), 7, true, false).unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, 0).unwrap();
        assert!(events.iter().all(|e| e.token != 7 || !e.writable));
        poller.modify(a.as_raw_fd(), 7, false, true).unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, 1000).unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.writable));
    }
}
