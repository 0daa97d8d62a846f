//! The content-hash-keyed decode cache: validate + decode each
//! distinct program **once**, serve every later run from the compiled
//! artifact.
//!
//! Concurrency discipline: the outer map is held only long enough to
//! clone an `Arc` slot; compilation itself runs inside the slot's
//! `OnceLock`, so N racing submitters of the same new program perform
//! exactly one parse/validate (the others block on the lock and share
//! the result). Per-tier backends compile lazily under their own
//! `OnceLock`s — a program served only on the reference tier never
//! pays the fast tier's decode. Failed compilations are cached too:
//! resubmitting a broken program costs a hash lookup, not a re-parse.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use tpal_core::asm::parse_program;
use tpal_core::program::Program;
use tpal_core::tier::{ExecBackend, ExecTier};
use tpal_ir::{lower, parse_ir, Lowered, Mode};

use crate::spec::ProgramSrc;

/// A validated program plus its lazily compiled per-tier backends.
pub struct CachedProgram {
    hash: u64,
    compiled: Compiled,
    /// One slot per [`ExecTier::ALL`] entry, compiled on first use.
    tiers: [OnceLock<ExecBackend>; 2],
}

enum Compiled {
    /// Parsed straight from TPAL assembly.
    Asm(Program),
    /// Lowered through the IR frontend (keeps the parameter-register
    /// mapping for `--set`-style argument names).
    Ir(Lowered),
}

impl CachedProgram {
    /// The content hash this entry is keyed by.
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// The validated program.
    pub fn program(&self) -> &Program {
        match &self.compiled {
            Compiled::Asm(p) => p,
            Compiled::Ir(l) => &l.program,
        }
    }

    /// Maps a submitted argument name to the register it seeds: IR
    /// programs address entry parameters by bare name, assembly
    /// programs address registers directly.
    pub fn set_reg_name(&self, name: &str) -> String {
        match &self.compiled {
            Compiled::Asm(_) => name.to_owned(),
            Compiled::Ir(l) => l.param_reg(name),
        }
    }

    /// The compiled backend for `tier`, compiling it on first request
    /// (subsequent requests on any thread share the artifact).
    pub fn backend(&self, tier: ExecTier) -> &ExecBackend {
        let idx = ExecTier::ALL
            .iter()
            .position(|t| *t == tier)
            .expect("ExecTier::ALL covers every tier");
        self.tiers[idx].get_or_init(|| ExecBackend::new(self.program(), tier))
    }
}

/// One cache slot: the once-only compilation result for a content hash.
#[derive(Default)]
struct Slot {
    cell: OnceLock<Result<Arc<CachedProgram>, String>>,
}

/// The decode cache. See the module docs for the locking discipline.
pub struct ProgramCache {
    map: Mutex<HashMap<u64, Arc<Slot>>>,
    decodes: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ProgramCache {
    /// An empty cache.
    pub fn new() -> ProgramCache {
        ProgramCache {
            map: Mutex::new(HashMap::new()),
            decodes: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Looks `src` up by content hash, compiling it exactly once if
    /// absent. Returns the entry (or the cached compile error) and
    /// whether this call was a hit (the compilation had already
    /// completed when the call arrived).
    pub fn get_or_compile(&self, src: &ProgramSrc) -> (Result<Arc<CachedProgram>, String>, bool) {
        let hash = src.content_hash();
        let slot = {
            let mut map = self.map.lock().unwrap_or_else(|e| e.into_inner());
            Arc::clone(map.entry(hash).or_default())
        };
        let hit = slot.cell.get().is_some();
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        let result = slot
            .cell
            .get_or_init(|| {
                // The decode path proper: counted so tests can assert
                // each distinct program is decoded exactly once no
                // matter how many submitters race.
                self.decodes.fetch_add(1, Ordering::Relaxed);
                compile(src, hash).map(Arc::new)
            })
            .clone();
        (result, hit)
    }

    /// Fetches a previously compiled program by content hash (the
    /// replay path: the token names the program, the cache supplies
    /// it). `None` if the hash is unknown or its compilation failed.
    pub fn lookup(&self, hash: u64) -> Option<Arc<CachedProgram>> {
        let slot = {
            let map = self.map.lock().unwrap_or_else(|e| e.into_inner());
            Arc::clone(map.get(&hash)?)
        };
        match slot.cell.get() {
            Some(Ok(entry)) => Some(Arc::clone(entry)),
            _ => None,
        }
    }

    /// Number of times the decode path actually ran (≤ distinct
    /// programs submitted; == when no compile failed).
    pub fn decode_count(&self) -> u64 {
        self.decodes.load(Ordering::Relaxed)
    }

    /// Lookups that found a completed entry.
    pub fn hit_count(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to wait for (or perform) a compilation.
    pub fn miss_count(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Distinct content hashes resident.
    pub fn len(&self) -> usize {
        self.map.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for ProgramCache {
    fn default() -> Self {
        ProgramCache::new()
    }
}

/// Parses the lowering-mode name accepted in requests and tokens.
pub fn parse_mode(mode: &str) -> Result<Mode, String> {
    match mode {
        "serial" => Ok(Mode::Serial),
        "heartbeat" => Ok(Mode::Heartbeat),
        "expanded" => Ok(Mode::HeartbeatExpanded),
        "eager" => Ok(Mode::Eager { workers: 15 }),
        other => Err(format!(
            "unknown mode `{other}` (serial|heartbeat|expanded|eager)"
        )),
    }
}

fn compile(src: &ProgramSrc, hash: u64) -> Result<CachedProgram, String> {
    let compiled = if src.ir {
        let ir = parse_ir(&src.source).map_err(|e| format!("ir parse: {e}"))?;
        let mode = parse_mode(&src.mode)?;
        let lowered = lower(&ir, mode).map_err(|e| format!("lowering: {e}"))?;
        Compiled::Ir(lowered)
    } else {
        let program = parse_program(&src.source).map_err(|e| format!("asm parse: {e}"))?;
        Compiled::Asm(program)
    };
    Ok(CachedProgram {
        hash,
        compiled,
        tiers: [OnceLock::new(), OnceLock::new()],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SUM_TPL: &str = "fn main(n) {\n    s = 0;\n    parfor i in 0..n reduce(s: +, 0) { s = s + i; }\n    return s;\n}\n";

    #[test]
    fn second_submission_is_a_hit_with_one_decode() {
        let cache = ProgramCache::new();
        let src = ProgramSrc::tpl(SUM_TPL, "heartbeat");
        let (a, hit_a) = cache.get_or_compile(&src);
        let (b, hit_b) = cache.get_or_compile(&src);
        assert!(a.is_ok() && b.is_ok());
        assert!(!hit_a);
        assert!(hit_b);
        assert_eq!(cache.decode_count(), 1);
        assert!(Arc::ptr_eq(&a.unwrap(), &b.unwrap()));
    }

    #[test]
    fn backends_compile_once_per_tier() {
        let cache = ProgramCache::new();
        let (entry, _) = cache.get_or_compile(&ProgramSrc::tpl(SUM_TPL, "heartbeat"));
        let entry = entry.unwrap();
        let a = entry.backend(ExecTier::Fast) as *const ExecBackend;
        let b = entry.backend(ExecTier::Fast) as *const ExecBackend;
        assert_eq!(a, b, "same compiled artifact on repeat requests");
        assert_eq!(
            entry.backend(ExecTier::Reference).tier(),
            ExecTier::Reference
        );
    }

    #[test]
    fn compile_errors_are_cached() {
        let cache = ProgramCache::new();
        let bad = ProgramSrc::asm("this is not tpal");
        let (r1, _) = cache.get_or_compile(&bad);
        let (r2, hit) = cache.get_or_compile(&bad);
        assert!(r1.is_err() && r2.is_err());
        assert!(hit, "cached failure still counts as a hit");
        assert_eq!(cache.decode_count(), 1, "broken programs parse once");
        assert!(cache.lookup(bad.content_hash()).is_none());
    }
}
