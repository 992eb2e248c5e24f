//! Per-file analysis cache, keyed by content hash.
//!
//! Lexing + item extraction dominate a full-tree run; both are pure
//! functions of one file's bytes. The cache stores each file's
//! [`FileAnalysis`] under an FNV-1a hash of its contents, so an incremental
//! run re-lexes only files whose bytes changed. The cross-file passes
//! (E/S rules, the pragma filter, L1) always rerun — they are cheap and
//! depend on the schema and the whole file set, so caching them would buy
//! nothing and risk staleness.
//!
//! The cache lives at `target/simlint-cache.json` (inside cargo's build
//! output, so `cargo clean` clears it and no checkout ever commits it).
//! Every failure mode — missing file, malformed JSON, version mismatch,
//! unknown rule name — degrades to a cache miss or a skipped write; the
//! cache can never change findings, only skip recomputing them.

use crate::items::FileItems;
use crate::rules::{FileAnalysis, RawFinding};
use std::collections::BTreeMap;
use std::path::Path;

use telemetry::json::{self, Value};

/// Bumped whenever rule or extraction semantics change, invalidating all
/// prior entries (the content hash only covers the *input* file).
pub const RULES_VERSION: u64 = 3;

/// 64-bit FNV-1a over the file's bytes.
pub fn content_hash(src: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in src.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Maps a cached rule-id string back to the static used by the rules
/// (cached findings are per-file, so only the local rules appear here).
fn intern_rule(s: &str) -> Option<&'static str> {
    [
        "D1", "D2", "D3", "D4", "P1", "P2", "P3", "G1", "G2", "G3", "G4",
    ]
    .into_iter()
    .find(|r| *r == s)
}

fn intern_pragma(s: &str) -> Option<&'static str> {
    [
        "unordered",
        "wallclock",
        "float-order",
        "truncation",
        "shared-state",
        "interior-mut",
        "thread-local",
    ]
    .into_iter()
    .find(|p| *p == s)
}

/// The loaded cache: `rel path → (content hash, analysis)`.
#[derive(Default)]
pub struct Cache {
    entries: BTreeMap<String, (u64, FileAnalysis)>,
}

impl Cache {
    /// Loads the cache file, returning an empty cache on any failure.
    pub fn load(path: &Path) -> Cache {
        let Ok(text) = std::fs::read_to_string(path) else {
            return Cache::default();
        };
        let Ok(doc) = json::parse(&text) else {
            return Cache::default();
        };
        if doc.get("version").and_then(Value::as_u64) != Some(RULES_VERSION) {
            return Cache::default();
        }
        let Some(Value::Obj(files)) = doc.get("files").cloned() else {
            return Cache::default();
        };
        let mut cache = Cache::default();
        for (rel, (entry, _)) in files {
            let Some((hash, analysis)) = entry_from_json(&rel, &entry) else {
                continue; // shape drift: miss for this file only
            };
            cache.entries.insert(rel, (hash, analysis));
        }
        cache
    }

    /// The cached analysis for `rel`, if its content hash still matches.
    pub fn get(&self, rel: &str, hash: u64) -> Option<FileAnalysis> {
        self.entries
            .get(rel)
            .filter(|(h, _)| *h == hash)
            .map(|(_, a)| a.clone())
    }

    /// Records (or replaces) the analysis for `rel`.
    pub fn put(&mut self, rel: &str, hash: u64, analysis: FileAnalysis) {
        self.entries.insert(rel.to_string(), (hash, analysis));
    }

    /// Writes the cache file. Failures (read-only tree, missing `target/`)
    /// are ignored: the cache is an accelerator, not state.
    pub fn store(&self, path: &Path) {
        let mut files = BTreeMap::new();
        for (rel, (hash, analysis)) in &self.entries {
            files.insert(rel.clone(), (entry_to_json(*hash, analysis), 1));
        }
        let mut doc = BTreeMap::new();
        doc.insert("version".to_string(), (Value::Num(RULES_VERSION), 1));
        doc.insert("files".to_string(), (Value::Obj(files), 1));
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let _ = std::fs::write(path, json::write(&Value::Obj(doc)));
    }
}

fn entry_to_json(hash: u64, a: &FileAnalysis) -> Value {
    let findings = a
        .findings
        .iter()
        .map(|f| {
            Value::Arr(vec![
                Value::Num(u64::from(f.line)),
                Value::Str(f.rule.to_string(), 1),
                match f.pragma {
                    Some(p) => Value::Str(p.to_string(), 1),
                    None => Value::Null,
                },
                Value::Str(f.msg.clone(), 1),
            ])
        })
        .collect();
    let mut m = BTreeMap::new();
    m.insert("hash".to_string(), (Value::Num(hash), 1));
    m.insert("items".to_string(), (a.items.to_json(), 1));
    m.insert("findings".to_string(), (Value::Arr(findings), 1));
    Value::Obj(m)
}

fn entry_from_json(rel: &str, v: &Value) -> Option<(u64, FileAnalysis)> {
    let hash = v.get("hash")?.as_u64()?;
    let items = FileItems::from_json(v.get("items")?)?;
    let mut findings = Vec::new();
    for f in v.get("findings")?.items() {
        let it = f.items();
        let pragma = match it.get(2)? {
            Value::Null => None,
            p => Some(intern_pragma(p.as_str()?)?),
        };
        findings.push(RawFinding {
            file: rel.to_string(),
            line: u32::try_from(it.first()?.as_u64()?).ok()?,
            rule: intern_rule(it.get(1)?.as_str()?)?,
            pragma,
            msg: it.get(3)?.as_str()?.to_string(),
        });
    }
    Some((hash, FileAnalysis { items, findings }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_stable_and_content_sensitive() {
        assert_eq!(content_hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(content_hash("abc"), content_hash("abc"));
        assert_ne!(content_hash("abc"), content_hash("abd"));
    }

    #[test]
    fn roundtrips_through_store_and_load() {
        let dir = std::env::temp_dir().join(format!(
            "simlint-cache-test-{}",
            content_hash(concat!(file!(), "roundtrip"))
        ));
        let path = dir.join("cache.json");
        let analysis = crate::rules::analyze_file(
            "crates/netsim/src/x.rs",
            "use std::collections::HashMap;\n",
        );
        let hash = content_hash("use std::collections::HashMap;\n");
        let mut cache = Cache::default();
        cache.put("crates/netsim/src/x.rs", hash, analysis.clone());
        cache.store(&path);
        let re = Cache::load(&path);
        let got = re.get("crates/netsim/src/x.rs", hash).unwrap();
        assert_eq!(got.findings, analysis.findings);
        assert_eq!(got.items.pragmas, analysis.items.pragmas);
        assert!(
            re.get("crates/netsim/src/x.rs", hash ^ 1).is_none(),
            "hash mismatch is a miss"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_or_version_skewed_cache_is_empty() {
        let dir = std::env::temp_dir().join(format!(
            "simlint-cache-test-{}",
            content_hash(concat!(file!(), "skew"))
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");
        std::fs::write(&path, "not json").unwrap();
        assert!(Cache::load(&path).entries.is_empty());
        std::fs::write(&path, r#"{"version": 999999, "files": {}}"#).unwrap();
        assert!(Cache::load(&path).entries.is_empty());
        // Hostile nesting is a miss too, not a stack overflow.
        for open in ["[", "{\"a\":"] {
            std::fs::write(&path, open.repeat(100_000)).unwrap();
            assert!(Cache::load(&path).entries.is_empty());
        }
        assert!(Cache::load(&dir.join("missing.json")).entries.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
