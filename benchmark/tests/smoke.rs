//! A 2 s run of all four workloads through the real binary: every
//! workload commits operations, passes its output checks and reports all
//! four end-to-end metrics.

use serde_json::Value;
use std::process::Command;

#[test]
fn quick_run_of_every_workload_is_correct_and_complete() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("benchmark/target/results-seed11.json");
    let status = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .current_dir(&dir)
        .args(["run", "--seconds", "2", "--seed", "11"])
        .status()
        .expect("the benchmark binary starts");
    assert!(status.success(), "benchmark run --seconds 2 exited with {status}");

    let set: Value = serde_json::from_str(&std::fs::read_to_string(&out).unwrap()).unwrap();
    assert_eq!(set["seed"].as_u64(), Some(11));
    assert_eq!(set["seconds"].as_u64(), Some(2));
    assert!(set["machine"]["nproc"].as_u64().unwrap() >= 1);
    let runs = set["runs"].as_array().unwrap();
    let names: Vec<&str> = runs.iter().map(|r| r["workload"].as_str().unwrap()).collect();
    assert_eq!(names, ["udp-echo", "udp-echo-bn", "udp-kv-wal", "sim-hm-n100"]);
    for run in runs {
        let name = run["workload"].as_str().unwrap();
        for check in run["checks"].as_array().unwrap() {
            assert_eq!(check["ok"].as_bool(), Some(true), "{name}: {check}");
        }
        assert_eq!(run["failed"].as_u64(), Some(0), "{name}");
        assert!(run["attempted"].as_u64().unwrap() > 0, "{name}");
        for metric in ["ops_per_s", "latency_p50_us", "mem_bytes_per_op", "setup_s"] {
            let value = run["metrics"][metric]["value"].as_f64();
            assert!(value.is_some_and(|v| v > 0.0), "{name}: {metric} = {value:?}");
        }
    }
    // The store directories of udp-kv-wal are gone again.
    let scratch = dir.join("benchmark/target/scratch");
    let left: Vec<_> = std::fs::read_dir(&scratch)
        .unwrap()
        .flatten()
        .map(|e| e.file_name())
        .collect();
    assert!(left.is_empty(), "left behind in {}: {left:?}", scratch.display());
    std::fs::remove_dir_all(&dir).unwrap();
}
