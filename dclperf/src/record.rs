//! Per-run accounting: operations attempted and failed per kind, latency
//! samples, and the timed part of every round (wall time and CPU time).

use crate::util::{self, Usage};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Attempted / failed counters of one operation kind.
#[derive(Debug, Default, Clone, Copy)]
pub struct OpCount {
    pub attempted: u64,
    pub failed: u64,
}

/// A started timed section (see [`Recorder::start`]).
pub struct Timed {
    wall: Instant,
    cpu: Usage,
}

#[derive(Default)]
pub struct Recorder {
    pub kinds: BTreeMap<&'static str, OpCount>,
    /// Latency samples of the workload's blocking request, in µs.  Only
    /// requests whose every operation succeeded contribute.
    pub latencies_us: Vec<f64>,
    /// Work units per second of each round whose operations all succeeded.
    pub round_rates: Vec<f64>,
    /// Work units completed by those rounds.
    pub work: f64,
    /// CPU seconds spent in timed sections of those rounds.
    pub user_s: f64,
    pub sys_s: f64,
    pub rounds: u64,
    round_timed_s: f64,
    round_user_s: f64,
    round_sys_s: f64,
    round_failed: bool,
}

impl Recorder {
    /// Attempt one operation of `kind`.  A failure is counted and never
    /// timed: it marks the round, whose timings are then dropped.
    pub fn op<T, E: std::fmt::Display>(
        &mut self,
        kind: &'static str,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Option<T> {
        let count = self.kinds.entry(kind).or_default();
        count.attempted += 1;
        match f() {
            Ok(value) => Some(value),
            Err(e) => {
                count.failed += 1;
                self.round_failed = true;
                eprintln!("dclperf: {kind} failed: {e}");
                None
            }
        }
    }

    /// Whether an operation of the current round failed so far.
    pub fn round_failed(&self) -> bool {
        self.round_failed
    }

    pub fn start(&self) -> Timed {
        Timed { wall: Instant::now(), cpu: util::usage() }
    }

    /// Close a timed section; returns its wall time.
    pub fn stop(&mut self, timed: Timed) -> Duration {
        let wall = timed.wall.elapsed();
        let cpu = util::usage();
        self.round_timed_s += wall.as_secs_f64();
        self.round_user_s += cpu.user_s - timed.cpu.user_s;
        self.round_sys_s += cpu.sys_s - timed.cpu.sys_s;
        wall
    }

    /// Record one latency sample of the workload's blocking request.
    pub fn latency(&mut self, d: Duration) {
        self.latencies_us.push(d.as_secs_f64() * 1e6);
    }

    /// Close the round, which completed `work` units in its timed sections.
    pub fn end_round(&mut self, work: f64) {
        if !self.round_failed && self.round_timed_s > 0.0 {
            self.round_rates.push(work / self.round_timed_s);
            self.work += work;
            self.user_s += self.round_user_s;
            self.sys_s += self.round_sys_s;
        }
        self.rounds += 1;
        self.round_timed_s = 0.0;
        self.round_user_s = 0.0;
        self.round_sys_s = 0.0;
        self.round_failed = false;
    }

    pub fn attempted(&self) -> u64 {
        self.kinds.values().map(|c| c.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.kinds.values().map(|c| c.failed).sum()
    }
}
