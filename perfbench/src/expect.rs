//! Expected result digests: the correctness gate every run passes
//! through.
//!
//! `expected.json` (next to `Cargo.toml`) maps a cell key to the content
//! digest ([`rmt_stats::digest::digest`]) of the cell's result document.
//! Keys that depend on the seed carry it (`paper_cells/sampled/seed=3/gcc`,
//! `sweep_cold/seed=3`). A key with no stored digest — a held-out seed —
//! is computed in-process, outside the timed region, by a different path
//! than the one being measured where one exists (the single-process sweep
//! for `sweep_cold`, direct `execute` for served cells).

use rmt_stats::Json;
use std::collections::BTreeMap;

const STORED: &str = include_str!("../expected.json");

/// Stored digests plus the ones computed during this run.
#[derive(Debug)]
pub struct Expected {
    stored: BTreeMap<String, String>,
    computed: BTreeMap<String, String>,
}

impl Expected {
    /// The digests compiled into the benchmark.
    ///
    /// # Panics
    ///
    /// `expected.json` is not a flat object of strings (a build defect).
    pub fn load() -> Expected {
        let doc = rmt_stats::json::parse(STORED).expect("expected.json is valid JSON");
        let stored = doc
            .members()
            .expect("expected.json is an object")
            .iter()
            .map(|(k, v)| {
                let d = v.as_str().expect("expected.json values are digests");
                (k.clone(), d.to_string())
            })
            .collect();
        Expected {
            stored,
            computed: BTreeMap::new(),
        }
    }

    /// The expected digest for `key`, computing (and remembering) it with
    /// `compute` when none is stored.
    ///
    /// # Errors
    ///
    /// Whatever `compute` fails with.
    pub fn get_or_compute(
        &mut self,
        key: &str,
        compute: impl FnOnce() -> Result<Json, String>,
    ) -> Result<String, String> {
        if let Some(d) = self.stored.get(key).or_else(|| self.computed.get(key)) {
            return Ok(d.clone());
        }
        let d = rmt_stats::digest::digest(&compute()?);
        self.computed.insert(key.to_string(), d.clone());
        Ok(d)
    }

    /// How many expected digests this run had to compute.
    pub fn computed_count(&self) -> usize {
        self.computed.len()
    }

    /// Merges the digests computed in this run into `expected.json` in
    /// the source tree (the `--record` maintenance mode).
    ///
    /// # Errors
    ///
    /// The file cannot be written.
    pub fn record(&self) -> Result<(), String> {
        // Merge into the file as it is now, not as it was compiled in, so
        // successive `--record` runs accumulate.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/expected.json");
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        let on_disk = rmt_stats::json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let mut all: BTreeMap<String, String> = on_disk
            .members()
            .ok_or_else(|| format!("{path} is not an object"))?
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
            .collect();
        all.extend(self.computed.clone());
        let mut doc = Json::obj();
        for (k, v) in &all {
            doc.set(k, Json::Str(v.clone()));
        }
        let mut text = doc.encode_pretty();
        text.push('\n');
        std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
    }
}
