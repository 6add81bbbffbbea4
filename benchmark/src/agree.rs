//! `benchmark agree <a.json> <b.json>`: do two sets of result files agree
//! within the benchmark's own bounds?
//!
//! Each argument is a result set written by `run`, or a directory of them
//! (one per seed). Values are paired by (workload, metric); a side with
//! several runs contributes its median, and its interquartile range says
//! whether the comparison can be trusted at all: when either side's range
//! exceeds what the metric tolerates (its bound as a share of the median,
//! or its absolute floor if that is more) the pair is *unresolved*, not
//! unchanged.

use crate::defs::{Better, EndToEnd, END_TO_END};
use crate::report::ResultSet;
use crate::stats;
use std::collections::BTreeMap;
use std::path::Path;

/// The verdict on one (workload, metric) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B is no worse than A by more than the metric tolerates.
    Agree,
    /// B is worse than A by more than the metric tolerates.
    Worse,
    /// A side's own interquartile range exceeds what the metric tolerates.
    Unresolved,
}

/// One compared pair.
#[derive(Clone, Debug)]
pub struct Pair {
    pub workload: String,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    pub runs: (usize, usize),
    /// Interquartile range over the median, per side (0 with one run).
    pub spread: (f64, f64),
    /// How much worse B is than A as a share of A (negative = better).
    pub worse_by: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Values by (workload, metric) across the runs of one side.
type Values = BTreeMap<(String, String), Vec<f64>>;

pub fn load(path: &Path) -> Result<Values, String> {
    let mut files = Vec::new();
    if path.is_dir() {
        let dir = std::fs::read_dir(path).map_err(|e| format!("{}: {e}", path.display()))?;
        for entry in dir.flatten() {
            if entry.path().extension().is_some_and(|e| e == "json") {
                files.push(entry.path());
            }
        }
        files.sort();
    } else {
        files.push(path.to_path_buf());
    }
    let mut values = Values::new();
    for file in &files {
        let text = std::fs::read_to_string(file).map_err(|e| format!("{}: {e}", file.display()))?;
        let set: ResultSet = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", file.display()))?;
        for run in set.runs.iter().filter(|r| !r.traced) {
            for (name, m) in &run.metrics {
                values
                    .entry((run.workload.clone(), name.clone()))
                    .or_default()
                    .push(m.value);
            }
        }
    }
    if values.is_empty() {
        return Err(format!("{}: no untraced results found", path.display()));
    }
    Ok(values)
}

/// Median and interquartile range (0 with one run).
fn side(values: &[f64]) -> (f64, f64) {
    let iqr = if values.len() >= 2 {
        let (q1, q3) = stats::quartiles(values);
        q3 - q1
    } else {
        0.0
    };
    (stats::median(values), iqr)
}

/// Compare the runs of one (workload, metric) pair.
pub fn judge(workload: &str, metric: &EndToEnd, a: &[f64], b: &[f64]) -> Pair {
    let (ma, ra) = side(a);
    let (mb, rb) = side(b);
    let worse = match metric.better {
        Better::Lower => mb - ma,
        Better::Higher => ma - mb,
    };
    let verdict = if ra > metric.tolerance(ma) || rb > metric.tolerance(mb) {
        Verdict::Unresolved
    } else if worse > metric.tolerance(ma) {
        Verdict::Worse
    } else {
        Verdict::Agree
    };
    Pair {
        workload: workload.to_string(),
        metric: metric.name,
        a: ma,
        b: mb,
        runs: (a.len(), b.len()),
        spread: (ra / ma.abs(), rb / mb.abs()),
        worse_by: worse / ma.abs(),
        bound: metric.bound,
        verdict,
    }
}

pub fn compare(a: &Values, b: &Values) -> Vec<Pair> {
    let mut pairs = Vec::new();
    for ((workload, name), va) in a {
        let metric = END_TO_END.iter().find(|m| m.name == name);
        if let (Some(metric), Some(vb)) = (metric, b.get(&(workload.clone(), name.clone()))) {
            pairs.push(judge(workload, metric, va, vb));
        }
    }
    pairs
}

pub fn render(pairs: &[Pair]) -> String {
    let mut out = format!(
        "{:<14} {:<16} {:>14} {:>14} {:>9} {:>7} {:>15}  verdict\n",
        "workload", "metric", "A (median)", "B (median)", "B worse", "bound", "spread A / B"
    );
    for p in pairs {
        out.push_str(&format!(
            "{:<14} {:<16} {:>14.4} {:>14.4} {:>+8.2}% {:>6.0}% {:>6.1}% / {:>5.1}%  {}\n",
            p.workload,
            p.metric,
            p.a,
            p.b,
            p.worse_by * 100.0,
            p.bound * 100.0,
            p.spread.0 * 100.0,
            p.spread.1 * 100.0,
            match p.verdict {
                Verdict::Agree => "agree",
                Verdict::Worse => "WORSE",
                Verdict::Unresolved => "unresolved",
            }
        ));
    }
    let (na, nb) = pairs.first().map_or((0, 0), |p| p.runs);
    out.push_str(&format!(
        "ratios are (B − A) / A in the direction that is worse; medians of {na} and {nb} runs; \
         spread is the interquartile range over the median\n"
    ));
    for m in END_TO_END.iter().filter(|m| m.floor > 0.0) {
        out.push_str(&format!(
            "{}: a difference or range under {} {} counts as none\n",
            m.name, m.floor, m.unit
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    #[test]
    fn direction_and_bound_decide_the_verdict() {
        let tput = metric("ops_per_s");
        // Half the bound fewer ops/s agrees.
        let inside = 1000.0 * (1.0 - tput.bound / 2.0);
        assert_eq!(judge("w", tput, &[1000.0], &[inside]).verdict, Verdict::Agree);
        // 30 % fewer: worse. 30 % more: an improvement agrees.
        assert_eq!(judge("w", tput, &[1000.0], &[700.0]).verdict, Verdict::Worse);
        assert_eq!(judge("w", tput, &[1000.0], &[1300.0]).verdict, Verdict::Agree);
        let lat = metric("latency_p50_us");
        assert_eq!(judge("w", lat, &[100.0], &[130.0]).verdict, Verdict::Worse);
        assert_eq!(judge("w", lat, &[100.0], &[70.0]).verdict, Verdict::Agree);
        assert!((judge("w", lat, &[100.0], &[130.0]).worse_by - 0.30).abs() < 1e-12);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let tput = metric("ops_per_s");
        let steady = [1000.0, 1005.0, 995.0, 1002.0, 998.0];
        let noisy = [1000.0, 700.0, 1300.0, 850.0, 1150.0];
        assert_eq!(judge("w", tput, &steady, &steady).verdict, Verdict::Agree);
        assert_eq!(judge("w", tput, &steady, &noisy).verdict, Verdict::Unresolved);
        assert_eq!(judge("w", tput, &noisy, &steady).verdict, Verdict::Unresolved);
    }

    #[test]
    fn set_up_time_needs_a_quarter_second_as_well_as_a_quarter_more() {
        let setup = metric("setup_s");
        // Milliseconds: twice as long, and a range as wide as the median,
        // are both under the floor.
        let ms = judge("w", setup, &[0.002, 0.004, 0.003], &[0.005, 0.008, 0.006]);
        assert_eq!(ms.verdict, Verdict::Agree);
        assert!((ms.worse_by - 1.0).abs() < 1e-12);
        // Seconds: the share decides.
        assert_eq!(judge("w", setup, &[2.0], &[2.4]).verdict, Verdict::Agree);
        assert_eq!(judge("w", setup, &[2.0], &[2.6]).verdict, Verdict::Worse);
        assert_eq!(
            judge("w", setup, &[2.0, 2.1, 1.9], &[2.0, 3.0, 1.0]).verdict,
            Verdict::Unresolved
        );
        // Over a quarter more but under a quarter of a second.
        assert_eq!(judge("w", setup, &[0.4], &[0.6]).verdict, Verdict::Agree);
    }
}
