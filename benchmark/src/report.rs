//! What a run reports, and the files it is stored in.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One measured value.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    pub value: f64,
    pub unit: String,
}

/// One output check behind the run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// The result of one workload run (one child process).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, Metric>,
    pub checks: Vec<Check>,
    /// Sample counts and other context for the reader of the numbers.
    pub notes: Vec<String>,
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    pub fn set(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.insert(
            name.to_string(),
            Metric {
                value,
                unit: unit.to_string(),
            },
        );
    }

    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        });
    }

    /// The last line of a contract run's standard output.
    pub fn contract_line(&self) -> String {
        #[derive(Serialize)]
        struct Line<'a> {
            correct: bool,
            attempted: u64,
            failed: u64,
            metrics: &'a BTreeMap<String, Metric>,
        }
        serde_json::to_string(&Line {
            correct: self.correct(),
            attempted: self.attempted.max(1),
            failed: self.failed,
            metrics: &self.metrics,
        })
        .expect("a report serializes")
    }

    /// Failed share of attempted operations.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Where and on what the numbers were taken; embedded in every result file.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Machine {
    pub nproc: usize,
    pub network: String,
    pub store_fs: String,
    pub rustc: String,
    pub commit: String,
    /// Which dependencies and which sources the program was built from.
    pub build: String,
}

/// One `run` or `trace` of every workload under one seed.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ResultSet {
    pub machine: Machine,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub runs: Vec<RunReport>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        let mut r = RunReport {
            workload: "udp-echo".into(),
            seed: 7,
            seconds: 2,
            traced: false,
            attempted: 1001,
            failed: 0,
            metrics: BTreeMap::new(),
            checks: Vec::new(),
            notes: vec!["latency samples: 1000".into()],
        };
        r.set("ops_per_s", 12_176.25, "ops/s");
        r.set("latency_p50_us", 150.836, "us");
        r.check("workload_check", true, "1000 completions accepted");
        r
    }

    #[test]
    fn result_files_round_trip() {
        let set = ResultSet {
            machine: Machine {
                nproc: 2,
                network: "127.0.0.1 loopback".into(),
                store_fs: "ext4".into(),
                rustc: "rustc 1.95.0".into(),
                commit: "unknown".into(),
                build: "dependencies: crates.io; source fix-ups: none".into(),
            },
            seed: 7,
            seconds: 2,
            traced: false,
            runs: vec![sample()],
        };
        let text = serde_json::to_string_pretty(&set).unwrap();
        let back: ResultSet = serde_json::from_str(&text).unwrap();
        assert_eq!(back, set);
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let mut r = sample();
        let v: serde_json::Value = serde_json::from_str(&r.contract_line()).unwrap();
        let keys: Vec<&String> = v.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v["correct"].as_bool(), Some(true));
        assert_eq!(v["attempted"].as_u64(), Some(1001));
        assert_eq!(v["metrics"]["ops_per_s"]["value"].as_f64(), Some(12_176.25));
        assert_eq!(v["metrics"]["ops_per_s"]["unit"].as_str(), Some("ops/s"));
        r.check("replica_digests_agree", false, "r2 diverges at slot 9");
        assert!(!r.correct());
        assert!(r.contract_line().contains("\"correct\":false"));
        assert_eq!(r.failed_share(), 0.0);
    }
}
