//! [`SimBackend`]: a degraded-storage simulator wrapping any other
//! backend.
//!
//! The wrapper adds three independently configurable behaviors, all
//! deterministic under a seed:
//!
//! - **latency**: every read and write sleeps a base duration plus
//!   seeded uniform jitter, modeling per-request cost of a remote
//!   object store;
//! - **bandwidth**: transferred bytes are throttled to a configured
//!   rate, so large objects cost proportionally more than index-sized
//!   ranges — which is what makes pruned (ranged) scans visibly cheaper
//!   than whole-file scans on a slow backend;
//! - **transient read faults**: every `fail_every`-th read returns
//!   [`std::io::ErrorKind::Interrupted`] *before* touching the inner
//!   backend. The store's read paths retry these (see
//!   [`super::get_retry`]), so a flaky backend degrades into latency
//!   while results stay bitwise identical.
//!
//! Writes are never failed by the simulator: commit atomicity is the
//! inner backend's contract, and the crash harness
//! ([`super::local::arm_crash_before_rename`]) already covers torn
//! commits deterministically.

use super::ObjectStore;
use crate::error::{Result, StoreError};
use blockdec_chain::hash::splitmix64;
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Degradation profile of a [`SimBackend`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimProfile {
    /// Seed for the jitter stream.
    pub seed: u64,
    /// Base latency added to every read/write, in microseconds.
    pub latency_us: u64,
    /// Upper bound of the uniform jitter added on top, in microseconds
    /// (0 = no jitter).
    pub jitter_us: u64,
    /// Transfer throttle in KiB per second (0 = unthrottled).
    pub bandwidth_kbps: u64,
    /// Every n-th read (whole-object or ranged) fails with a transient
    /// [`std::io::ErrorKind::Interrupted`] error (0 = never).
    pub fail_every: u64,
}

impl SimProfile {
    /// A profile that only reorders time, never fails: 50 µs ± 25 µs
    /// per operation, unthrottled, no faults.
    pub fn slow(seed: u64) -> SimProfile {
        SimProfile {
            seed,
            latency_us: 50,
            jitter_us: 25,
            bandwidth_kbps: 0,
            fail_every: 0,
        }
    }

    /// A flaky profile: slow, plus every 5th read fails transiently.
    pub fn flaky(seed: u64) -> SimProfile {
        SimProfile {
            fail_every: 5,
            ..SimProfile::slow(seed)
        }
    }
}

struct SimState {
    rng: u64,
    reads: u64,
}

/// See the [module docs](self).
pub struct SimBackend {
    inner: Arc<dyn ObjectStore>,
    profile: SimProfile,
    state: Mutex<SimState>,
}

impl SimBackend {
    /// Wrap `inner` with the given degradation profile.
    pub fn new(inner: Arc<dyn ObjectStore>, profile: SimProfile) -> SimBackend {
        SimBackend {
            inner,
            profile,
            state: Mutex::new(SimState {
                rng: profile.seed ^ 0x5b0c_dec0_5b0c_dec0,
                reads: 0,
            }),
        }
    }

    /// Sleep out the simulated cost of moving `bytes` bytes.
    fn delay(&self, bytes: usize) {
        let mut us = self.profile.latency_us;
        if self.profile.jitter_us > 0 {
            let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
            us += splitmix64(state.rng) % self.profile.jitter_us;
            state.rng = state.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        }
        if self.profile.bandwidth_kbps > 0 {
            us += (bytes as u64).saturating_mul(1_000_000) / (self.profile.bandwidth_kbps * 1024);
        }
        if us > 0 {
            std::thread::sleep(Duration::from_micros(us));
        }
    }

    /// Count a read; `Err` when this is the one to fail transiently.
    fn read_fault(&self, name: &str) -> Result<()> {
        if self.profile.fail_every == 0 {
            return Ok(());
        }
        let fire = {
            let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
            state.reads += 1;
            state.reads.is_multiple_of(self.profile.fail_every)
        };
        if fire {
            blockdec_obs::counter("store.backend.sim_faults").inc();
            return Err(StoreError::io(
                PathBuf::from(self.inner.describe(name)),
                io::Error::new(io::ErrorKind::Interrupted, "injected transient read fault"),
            ));
        }
        Ok(())
    }
}

impl ObjectStore for SimBackend {
    fn describe(&self, name: &str) -> String {
        self.inner.describe(name)
    }

    fn describe_root(&self) -> String {
        self.inner.describe_root()
    }

    fn create_root(&self) -> Result<()> {
        self.inner.create_root()
    }

    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }

    fn size(&self, name: &str) -> Result<u64> {
        self.inner.size(name)
    }

    fn get(&self, name: &str) -> Result<Vec<u8>> {
        self.read_fault(name)?;
        let bytes = self.inner.get(name)?;
        self.delay(bytes.len());
        Ok(bytes)
    }

    fn get_range(&self, name: &str, offset: u64, len: usize) -> Result<Vec<u8>> {
        self.read_fault(name)?;
        self.delay(len);
        self.inner.get_range(name, offset, len)
    }

    fn put_atomic(&self, name: &str, bytes: &[u8]) -> Result<()> {
        self.delay(bytes.len());
        self.inner.put_atomic(name, bytes)
    }

    fn list(&self) -> Result<Vec<String>> {
        self.inner.list()
    }

    fn quarantine(&self, name: &str) -> Result<()> {
        self.inner.quarantine(name)
    }

    fn remove(&self, name: &str) -> Result<()> {
        self.inner.remove(name)
    }

    fn sweep_temps(&self) -> Result<usize> {
        self.inner.sweep_temps()
    }
}

#[cfg(test)]
mod tests {
    use super::super::{get_retry, is_transient, LocalFs};
    use super::*;
    use std::fs;

    fn sim(dir: &std::path::Path, profile: SimProfile) -> SimBackend {
        SimBackend::new(Arc::new(LocalFs::new(dir)), profile)
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!(
            "blockdec-sim-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn every_nth_read_fails_transiently_and_retry_clears_it() {
        let dir = tmp_dir("faults");
        let store = sim(
            &dir,
            SimProfile {
                seed: 7,
                latency_us: 0,
                jitter_us: 0,
                bandwidth_kbps: 0,
                fail_every: 3,
            },
        );
        store.put_atomic("blob", b"payload").unwrap();
        let mut failures = 0;
        for _ in 0..9 {
            match store.get("blob") {
                Ok(b) => assert_eq!(b, b"payload"),
                Err(e) => {
                    assert!(is_transient(&e), "{e}");
                    failures += 1;
                }
            }
        }
        assert_eq!(failures, 3, "exactly every 3rd read fails");
        // The retry helper makes the flakiness invisible.
        for _ in 0..9 {
            assert_eq!(get_retry(&store, "blob").unwrap(), b"payload");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn delegates_writes_and_listing_unchanged() {
        let dir = tmp_dir("delegate");
        let store = sim(&dir, SimProfile::slow(1));
        store.put_atomic("a.bds", b"x").unwrap();
        assert!(store.exists("a.bds"));
        assert_eq!(store.size("a.bds").unwrap(), 1);
        assert_eq!(store.list().unwrap(), vec!["a.bds"]);
        assert_eq!(store.get_range("a.bds", 0, 1).unwrap(), b"x");
        fs::remove_dir_all(&dir).unwrap();
    }
}
