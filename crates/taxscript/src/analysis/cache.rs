//! Content-hash verified-script cache.
//!
//! The analysis pipeline is deterministic: the same program bytes always
//! decode, verify, and lint to the same [`AnalysisReport`]. A mobile
//! agent, though, presents those same bytes at *every* hop — the firewall
//! re-admits it on arrival and the VM re-verifies before running — so an
//! N-host tour pays for N identical analyses. This module memoizes the
//! whole pipeline behind a content hash of the program bytes
//! ([`tacoma_security::hash_bytes`], the repo's Merkle–Damgård digest):
//! a briefcase carrying a known hash skips decode *and* analysis on every
//! hop after the first.
//!
//! Keys are domain-separated — bytecode and source text hash under
//! different tags, so an agent cannot alias a source-path entry with
//! crafted bytecode (or vice versa). Entries are `Arc`-shared and the
//! cache is a bounded LRU: a long-running firewall admitting many
//! distinct agents evicts the least recently used entry rather than
//! growing without bound. Failures are cached too (negative caching) —
//! a malformed agent retried at every hop stays cheap to reject.
//!
//! There is no process-wide instance: each host owns one cache (in
//! `tacoma-vm`'s `LaunchCaches`), shared by its firewall admission and
//! its VMs, so an agent admitted at the door is a warm hit when the VM
//! loads it and the counters belong to that host alone.

use std::collections::{HashMap, VecDeque};
use std::convert::Infallible;
use std::fmt;
use std::sync::{Arc, Mutex};

use tacoma_security::{hash_bytes, Digest};

use crate::compile_source;
use crate::error::{RuntimeError, ScriptError};
use crate::program::Program;

use super::{analyze, AnalysisReport, VerifyError};

/// Domain-separation tag for bytecode keys.
const TAG_BYTECODE: &[u8] = b"taxscript:cache:bytecode\0";
/// Domain-separation tag for source-text keys.
const TAG_SOURCE: &[u8] = b"taxscript:cache:source\0";

/// Default number of entries a cache retains.
pub const DEFAULT_CAPACITY: usize = 256;

/// A program that passed the full analysis pipeline, with its report.
///
/// Shared via `Arc` so cache hits cost a pointer clone, not a deep copy
/// of the decoded program.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifiedScript {
    /// The decoded (or compiled) program.
    pub program: Program,
    /// The full analysis report, flow summary included.
    pub report: AnalysisReport,
}

/// Why a program failed the pipeline — cached so repeated rejection of
/// the same bytes is O(hash), and typed so a caller gets the same error
/// a cold decode or compile would have raised.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisFailure {
    /// The wire bytes did not decode as a program.
    Decode(RuntimeError),
    /// The source text did not compile.
    Compile(ScriptError),
    /// The program decoded but failed verification.
    Verify(VerifyError),
}

impl fmt::Display for AnalysisFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisFailure::Decode(e) => write!(f, "decode failed: {e}"),
            AnalysisFailure::Compile(e) => write!(f, "compile failed: {e}"),
            AnalysisFailure::Verify(e) => write!(f, "verification failed: {e}"),
        }
    }
}

/// The outcome stored per key: a verified script or the reason it failed.
pub type CacheResult = Result<Arc<VerifiedScript>, AnalysisFailure>;

/// Cumulative counters of a [`ContentLru`] (or any bounded warm pool),
/// exported into `FirewallStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that ran the cold path.
    pub misses: u64,
    /// Entries dropped to stay within capacity.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

struct Inner<V> {
    map: HashMap<Digest, V>,
    /// Recency order, least recent first. Touch is O(n); capacities are
    /// small (hundreds) and entries are 32-byte keys, so a scan beats
    /// the bookkeeping of an intrusive list.
    order: VecDeque<Digest>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// A bounded LRU keyed by content hash: the one memoization core behind
/// the [`AnalysisCache`] and `tacoma-vm`'s compiled-program cache.
pub struct ContentLru<V> {
    capacity: usize,
    inner: Mutex<Inner<V>>,
}

impl<V: Clone> ContentLru<V> {
    /// Creates a cache retaining at most `capacity` entries (min 1).
    pub fn new(capacity: usize) -> Self {
        ContentLru {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                order: VecDeque::new(),
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
        }
    }

    /// Looks up `key`, running `cold` and inserting its value on a miss.
    /// Returns the value and whether it was served from the cache.
    ///
    /// # Errors
    ///
    /// Whatever `cold` fails with; an `Err` is returned as is and **not**
    /// cached. (A cache that wants negative entries makes the failure part
    /// of `V`, as [`AnalysisCache`] does.)
    pub fn memoize<E>(
        &self,
        key: Digest,
        cold: impl FnOnce() -> Result<V, E>,
    ) -> Result<(V, bool), E> {
        {
            let mut inner = self.inner.lock().expect("content cache poisoned");
            if let Some(found) = inner.map.get(&key).cloned() {
                inner.hits += 1;
                if let Some(pos) = inner.order.iter().position(|k| *k == key) {
                    inner.order.remove(pos);
                    inner.order.push_back(key);
                }
                return Ok((found, true));
            }
            inner.misses += 1;
        }
        // Run the cold path outside the lock: a slow miss must not
        // serialize unrelated lookups. Two racing threads may both compute
        // the same key; determinism makes either result correct.
        let value = cold()?;
        let mut inner = self.inner.lock().expect("content cache poisoned");
        if !inner.map.contains_key(&key) {
            while inner.map.len() >= self.capacity {
                let Some(old) = inner.order.pop_front() else {
                    break;
                };
                inner.map.remove(&old);
                inner.evictions += 1;
            }
            inner.map.insert(key, value.clone());
            inner.order.push_back(key);
        }
        Ok((value, false))
    }

    /// Cumulative counters plus current occupancy.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("content cache poisoned");
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            entries: inner.map.len(),
        }
    }
}

impl<V: Clone> fmt::Debug for ContentLru<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.stats();
        f.debug_struct("ContentLru")
            .field("capacity", &self.capacity)
            .field("entries", &s.entries)
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .field("evictions", &s.evictions)
            .finish()
    }
}

/// A bounded LRU of analysis results keyed by content hash.
#[derive(Debug)]
pub struct AnalysisCache {
    lru: ContentLru<CacheResult>,
}

impl AnalysisCache {
    /// Creates a cache retaining at most `capacity` entries (min 1).
    pub fn new(capacity: usize) -> Self {
        AnalysisCache {
            lru: ContentLru::new(capacity),
        }
    }

    /// The content-hash key for program wire bytes.
    pub fn key_for_bytes(wire: &[u8]) -> Digest {
        tagged_hash(TAG_BYTECODE, wire)
    }

    /// The content-hash key for source text.
    pub fn key_for_source(source: &str) -> Digest {
        tagged_hash(TAG_SOURCE, source.as_bytes())
    }

    /// Decode + analyze `wire`, memoized. Returns the result and whether
    /// it was served from the cache.
    pub fn analyze_bytes(&self, wire: &[u8]) -> (CacheResult, bool) {
        self.memoize(Self::key_for_bytes(wire), || {
            let program = Program::decode(wire).map_err(AnalysisFailure::Decode)?;
            pipeline(program)
        })
    }

    /// Compile + analyze `source`, memoized. Returns the result and
    /// whether it was served from the cache.
    pub fn analyze_source(&self, source: &str) -> (CacheResult, bool) {
        self.memoize(Self::key_for_source(source), || {
            let program = compile_source(source).map_err(AnalysisFailure::Compile)?;
            pipeline(program)
        })
    }

    /// Failures are part of the cached value (negative caching), so the
    /// core's own error channel is never used.
    fn memoize(&self, key: Digest, cold: impl FnOnce() -> CacheResult) -> (CacheResult, bool) {
        match self.lru.memoize(key, || Ok::<_, Infallible>(cold())) {
            Ok(found) => found,
            Err(never) => match never {},
        }
    }

    /// Cumulative counters plus current occupancy.
    pub fn stats(&self) -> CacheStats {
        self.lru.stats()
    }
}

/// The cold pipeline a miss pays for: full [`analyze`], wrapped for the
/// cache's result shape.
fn pipeline(program: Program) -> CacheResult {
    match analyze(&program) {
        Ok(report) => Ok(Arc::new(VerifiedScript { program, report })),
        Err(e) => Err(AnalysisFailure::Verify(e)),
    }
}

/// The content hash of `data` under a domain-separation `tag`, so two
/// caches (or two key kinds in one cache) can never alias an entry.
pub fn tagged_hash(tag: &[u8], data: &[u8]) -> Digest {
    let mut buf = Vec::with_capacity(tag.len() + data.len());
    buf.extend_from_slice(tag);
    buf.extend_from_slice(data);
    hash_bytes(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    const AGENT: &str = r#"
        fn main() {
            bc_append("RESULTS", host_name());
            if (go("tacoma://h2/vm_script")) { display("fail"); }
            exit(0);
        }
    "#;

    #[test]
    fn bytes_hit_after_miss() {
        let cache = AnalysisCache::new(8);
        let wire = compile_source(AGENT).unwrap().encode();
        let (first, hit1) = cache.analyze_bytes(&wire);
        let (second, hit2) = cache.analyze_bytes(&wire);
        assert!(!hit1 && hit2);
        let (a, b) = (first.unwrap(), second.unwrap());
        assert!(Arc::ptr_eq(&a, &b), "hit must share the entry");
        assert_eq!(a.report, b.report);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn cache_matches_cold_path() {
        let cache = AnalysisCache::new(8);
        let program = compile_source(AGENT).unwrap();
        let wire = program.encode();
        assert!(cache.analyze_bytes(&wire).0.is_ok());
        let (warm, hit) = cache.analyze_bytes(&wire);
        assert!(hit);
        let cold = analyze(&program).unwrap();
        assert_eq!(warm.unwrap().report, cold);
    }

    #[test]
    fn failures_are_cached() {
        let cache = AnalysisCache::new(8);
        let garbage = b"not a program";
        let (first, hit1) = cache.analyze_bytes(garbage);
        let (second, hit2) = cache.analyze_bytes(garbage);
        assert!(first.is_err() && second.is_err());
        assert!(!hit1 && hit2, "failures are memoized too");
        let (bad_src, src_hit) = cache.analyze_source("fn main( {");
        assert!(matches!(bad_src, Err(AnalysisFailure::Compile(_))));
        assert!(!src_hit);
    }

    #[test]
    fn source_and_bytes_keys_do_not_alias() {
        // Same byte string under the two domains must key differently.
        let text = "fn main() { exit(0); }";
        assert_ne!(
            AnalysisCache::key_for_bytes(text.as_bytes()),
            AnalysisCache::key_for_source(text)
        );
    }

    #[test]
    fn lru_evicts_least_recent() {
        let cache = AnalysisCache::new(2);
        let wires: Vec<Vec<u8>> = (0..3)
            .map(|i| {
                compile_source(&format!("fn main() {{ display({i}); exit(0); }}"))
                    .unwrap()
                    .encode()
            })
            .collect();
        assert!(cache.analyze_bytes(&wires[0]).0.is_ok());
        assert!(cache.analyze_bytes(&wires[1]).0.is_ok());
        // Touch 0 so 1 becomes the eviction victim.
        assert!(cache.analyze_bytes(&wires[0]).1);
        assert!(cache.analyze_bytes(&wires[2]).0.is_ok());
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.analyze_bytes(&wires[0]).1, "0 survived");
        assert!(!cache.analyze_bytes(&wires[1]).1, "1 was evicted");
    }
}
