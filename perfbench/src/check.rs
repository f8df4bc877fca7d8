//! Output checks: reference digests and counted operations.
//!
//! Every figure payload and every `SimResult` the benchmark produces is
//! digested and compared with a reference digest committed in
//! `refs/digests.json`. Each comparison, audit or other check is one
//! attempted operation; a mismatch, an error or a panic is one failed
//! operation.

use std::collections::BTreeMap;

use specmt_store::FingerprintHasher;

/// The committed reference digests.
pub const REFS: &str = include_str!("../refs/digests.json");

/// Digest of `payload`: the store's 128-bit fingerprint, as hex.
pub fn digest(payload: &str) -> String {
    let mut h = FingerprintHasher::new();
    h.str(payload);
    h.finish().hex()
}

/// Counts attempted and failed operations against the reference digests.
#[derive(Debug)]
pub struct Checker {
    refs: BTreeMap<String, String>,
    /// Digests seen in this run, by key. A key digested twice must give the
    /// same digest both times.
    seen: BTreeMap<String, String>,
    bless: bool,
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// One line per failure, in order.
    pub failures: Vec<String>,
}

impl Checker {
    /// A checker against the references in `refs_json`. With `bless`, keys
    /// are recorded instead of compared (see [`Checker::blessed`]); a key
    /// that digests differently twice in one run still fails.
    ///
    /// # Errors
    ///
    /// A message if `refs_json` is not a `{"digests": {key: hex}}` object.
    pub fn new(refs_json: &str, bless: bool) -> Result<Checker, String> {
        let doc: serde_json::Value =
            serde_json::from_str(refs_json).map_err(|e| format!("reference digests: {e}"))?;
        let mut refs = BTreeMap::new();
        match doc.get("digests") {
            Some(serde_json::Value::Object(pairs)) => {
                for (k, v) in pairs {
                    let serde_json::Value::Str(hex) = v else {
                        return Err(format!("reference digest `{k}` is not a string"));
                    };
                    refs.insert(k.clone(), hex.clone());
                }
            }
            _ => return Err("reference digests: no `digests` object".to_owned()),
        }
        Ok(Checker {
            refs,
            seen: BTreeMap::new(),
            bless,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        })
    }

    /// Checks `payload` against the reference digest for `key`.
    pub fn digest(&mut self, key: &str, payload: &str) {
        let got = digest(payload);
        let previous = self.seen.insert(key.to_owned(), got.clone());
        if previous.as_ref().is_some_and(|p| *p != got) {
            return self.record(false, || {
                format!("{key}: differs between passes of one run")
            });
        }
        if self.bless {
            return self.record(true, String::new);
        }
        match self.refs.get(key).cloned() {
            Some(want) if want == got => self.record(true, String::new),
            Some(want) => self.record(false, || format!("{key}: digest {got}, reference {want}")),
            None => self.record(false, || format!("{key}: no reference digest")),
        }
    }

    /// Records one operation that succeeded if `ok`.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Records an operation that returned an error or panicked.
    pub fn fail(&mut self, what: impl std::fmt::Display) {
        self.record(false, || what.to_string());
    }

    /// Failed ÷ attempted (0 before any operation).
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// `base_json`, a reference document, with this run's digests merged
    /// in: what `refs/digests.json` becomes when the run blesses.
    ///
    /// # Errors
    ///
    /// As [`Checker::new`], for `base_json`.
    pub fn blessed(&self, base_json: &str) -> Result<String, String> {
        let mut all = Checker::new(base_json, true)?.refs;
        all.extend(self.seen.iter().map(|(k, v)| (k.clone(), v.clone())));
        let digests = serde_json::Value::Object(
            all.into_iter()
                .map(|(k, v)| (k, serde_json::Value::Str(v)))
                .collect(),
        );
        let doc = serde_json::json!({
            "schema": "perfbench-digests/v1",
            "digests": digests,
        });
        serde_json::to_string_pretty(&doc)
            .map(|s| s + "\n")
            .map_err(|e| e.to_string())
    }
}
