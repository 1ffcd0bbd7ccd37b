//! Minimal `parking_lot`-shaped locks over `std::sync`.
//!
//! The sharded engine wants `parking_lot` ergonomics — `lock()` /
//! `read()` / `write()` returning guards directly, no poisoning to thread
//! through every call site. That crate is not vendored in this offline
//! build, so this module provides the subset the engine uses. Poisoning
//! is deliberately ignored: the engine's state transitions are all-or-
//! nothing (admission installs a partition only after the solve succeeds),
//! so a panicking holder leaves the state no more inconsistent than
//! `parking_lot` itself would.

use std::sync::PoisonError;

/// A mutex whose `lock` returns the guard directly.
#[derive(Debug, Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Wrap a value.
    pub fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Acquire the lock, recovering from poisoning.
    pub fn lock(&self) -> std::sync::MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Consume the mutex, returning the value (poisoning ignored).
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A reader-writer lock whose `read`/`write` return guards directly.
///
/// Backs the sharded engine's base state: reads (admission solves, PEEK
/// overlays, query evaluation) share the lock; writers (grounding applies,
/// blind writes, DDL) are exclusive. See `crate::shard` for the global
/// lock-ordering discipline.
#[derive(Debug, Default)]
pub struct RwLock<T>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Wrap a value.
    pub fn new(value: T) -> Self {
        RwLock(std::sync::RwLock::new(value))
    }

    /// Acquire a shared read guard, recovering from poisoning.
    pub fn read(&self) -> std::sync::RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquire an exclusive write guard, recovering from poisoning.
    pub fn write(&self) -> std::sync::RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Consume the lock, returning the value (poisoning ignored).
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_survives_a_panicking_holder() {
        let m = Arc::new(Mutex::new(7));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock();
            panic!("poison the lock");
        })
        .join();
        assert_eq!(*m.lock(), 7);
    }

    #[test]
    fn rwlock_survives_a_panicking_writer_and_shares_reads() {
        let l = Arc::new(RwLock::new(3));
        let l2 = Arc::clone(&l);
        let _ = std::thread::spawn(move || {
            let _guard = l2.write();
            panic!("poison the lock");
        })
        .join();
        let a = l.read();
        let b = l.read(); // two simultaneous readers
        assert_eq!((*a, *b), (3, 3));
        drop((a, b));
        *l.write() += 1;
        assert_eq!(*l.read(), 4);
    }
}
