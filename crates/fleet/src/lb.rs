//! Phase 2: a deterministic load balancer over the node profiles.
//!
//! The LB is a serial discrete-event simulation: a seeded open-loop
//! arrival stream is dispatched round-robin over the machines the LB
//! currently believes healthy, with per-request timeouts, bounded
//! retries under jittered exponential backoff (the same escalation
//! idiom as the kernel's chaos ladder, one layer up), hedged
//! re-dispatch for tail latency, and periodic health probes that drive
//! machines through Healthy → Ejected → Probation → Healthy.
//!
//! Ground truth about a machine — when it is down, how slowly it
//! serves, whether its link is cut — comes from the phase-1
//! [`NodeProfile`]s plus the shared [`MachineFaults`] plan; the LB only
//! *observes* it through timeouts and probes, like a real balancer.
//! Everything is integer event times plus seeded jitter, ordered by
//! `(time, seq)`, so a fleet run renders byte-identically however the
//! node phase was sharded.
//!
//! Accounting is total: every arrival ends as exactly one of served,
//! served-after-retry, or a typed [`RequestError`]. Nothing is dropped
//! silently — that is the fleet gate's core invariant.

use tlbdown_sim::{Engine, SplitMix64};
use tlbdown_sweep::Json;
use tlbdown_types::Cycles;

use crate::fault::MachineFaults;
use crate::node::NodeProfile;

/// Re-dispatch attempts after the first.
const MAX_RETRIES: u32 = 3;
/// Consecutive observed failures (probe or request) that eject a machine
/// from rotation.
const EJECT_AFTER: u32 = 3;
/// Consecutive probe successes an ejected machine must string together
/// (its probation) before rejoining rotation.
const PROBATION_ACKS: u32 = 2;

/// Load balancer configuration. The LB's timers scale to `warm_latency`
/// and `window` (see `run_lb`).
#[derive(Clone, Debug)]
pub struct LbCfg {
    /// Fleet ticks over which arrivals are generated (responses and
    /// retries may drain past it).
    pub(crate) window: u64,
    /// Offered load across the whole fleet, requests per simulated
    /// second.
    pub(crate) fleet_rps: f64,
    /// The fleet's observed warm service latency, in ticks (floored at
    /// 1,000).
    pub(crate) warm_latency: u64,
    /// Seed for arrival spacing, jitter and hedge target choice.
    pub(crate) seed: u64,
}

/// Why a request ultimately failed. Typed: the gate requires every
/// non-served request to carry one of these.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum RequestError {
    /// All attempts timed out.
    TimedOut,
    /// No machine was in rotation when a (re)dispatch came due.
    NoHealthyMachine,
}

impl RequestError {
    fn name(self) -> &'static str {
        match self {
            RequestError::TimedOut => "timed_out",
            RequestError::NoHealthyMachine => "no_healthy_machine",
        }
    }
}

/// The LB's belief about one machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LbState {
    /// In rotation.
    Healthy,
    /// Out of rotation; probes keep watching it.
    Ejected,
    /// Probes have started succeeding again; needs `acks` more.
    Probation { acks: u32 },
}

#[derive(Clone, Copy, Debug)]
enum Ev {
    /// Dispatch attempt `attempt` of request `req` (arrival, retry, or
    /// redispatch after NoHealthy backoff).
    Dispatch { req: u32, attempt: u32 },
    /// Machine `machine` answers a dispatch of `req`.
    Response { req: u32, machine: u32, hedge: bool },
    /// Attempt `attempt` of `req` on `machine` went unanswered.
    Timeout {
        req: u32,
        attempt: u32,
        machine: u32,
    },
    /// First dispatch of `req` is still pending: hedge it.
    Hedge { req: u32, attempt: u32 },
    /// Health-check `machine`.
    Probe { machine: u32 },
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum ReqState {
    Pending,
    Served,
    Failed(RequestError),
}

struct Req {
    arrival: u64,
    state: ReqState,
    retried: bool,
    hedged: bool,
}

struct MachineView {
    faults: MachineFaults,
    /// Warm-path service latency in ticks (profile mean × straggler
    /// factor).
    warm: u64,
    /// Cold-path latency right after the machine's reboot completes.
    cold: u64,
    /// End of the post-reboot cold window, if the machine crashed.
    cold_until: Option<(u64, u64)>,
    capacity: u32,
    outstanding: u32,
    lb: LbState,
    fail_streak: u32,
    dispatched: u64,
    completed: u64,
    ejections: u64,
    rejoins: u64,
}

impl MachineView {
    fn service_latency(&self, t: u64, jitter: f64) -> u64 {
        let base = match self.cold_until {
            Some((s, e)) if t >= s && t < e => self.cold,
            _ => self.warm,
        };
        // Light queueing: latency stretches with load on the machine.
        let load = 1.0 + f64::from(self.outstanding) / f64::from(self.capacity.max(1));
        ((base as f64) * load * jitter).ceil() as u64
    }
}

/// What the LB phase produced: total request accounting plus the
/// machine-state ledger the gate's verdicts read.
#[derive(Clone, Debug)]
pub struct LbResult {
    /// Requests generated over the window.
    pub(crate) offered: u64,
    /// Requests served on their first dispatch (hedge wins included).
    pub(crate) served_first: u64,
    /// Requests served only after at least one retry.
    pub(crate) served_retried: u64,
    /// Requests whose winning response came from a hedge copy.
    pub(crate) hedge_wins: u64,
    /// Typed failures by kind, canonically ordered.
    pub(crate) failed: Vec<(RequestError, u64)>,
    /// Sum of served request latencies, in ticks.
    pub(crate) latency_sum: u64,
    /// Max served request latency, in ticks.
    pub(crate) latency_max: u64,
    /// Ejection events across the fleet.
    pub ejections: u64,
    /// Ejected machines that made it back through probation.
    pub rejoins: u64,
    /// Final LB state per machine: true if in rotation (healthy or
    /// probation) at the end.
    pub(crate) in_rotation: Vec<bool>,
    /// Per-machine dispatch counts (canonical machine order).
    pub(crate) dispatched: Vec<u64>,
}

impl LbResult {
    /// Total requests served.
    pub(crate) fn served(&self) -> u64 {
        self.served_first + self.served_retried
    }

    /// Total typed failures.
    pub(crate) fn failed_total(&self) -> u64 {
        self.failed.iter().map(|(_, n)| n).sum()
    }

    /// Every request must end served or typed-failed.
    pub(crate) fn fully_accounted(&self) -> bool {
        self.served() + self.failed_total() == self.offered
    }

    /// Mean served latency in ticks.
    pub(crate) fn latency_mean(&self) -> f64 {
        if self.served() == 0 {
            0.0
        } else {
            self.latency_sum as f64 / self.served() as f64
        }
    }

    /// Served requests per simulated second.
    pub(crate) fn requests_per_sec(&self, window: u64) -> f64 {
        if window == 0 {
            return 0.0;
        }
        self.served() as f64 * Cycles::FREQ_HZ as f64 / window as f64
    }

    /// Canonical JSON block (fixed key order, deterministic values).
    pub(crate) fn to_json(&self, window: u64) -> Json {
        let failed = self
            .failed
            .iter()
            .fold(Json::obj(), |j, (e, n)| j.with(e.name(), Json::U64(*n)));
        Json::obj()
            .with("offered", Json::U64(self.offered))
            .with("served_first", Json::U64(self.served_first))
            .with("served_retried", Json::U64(self.served_retried))
            .with("hedge_wins", Json::U64(self.hedge_wins))
            .with("failed", failed)
            .with("requests_per_sec", Json::F64(self.requests_per_sec(window)))
            .with("latency_mean", Json::F64(self.latency_mean()))
            .with("latency_max", Json::U64(self.latency_max))
            .with("ejections", Json::U64(self.ejections))
            .with("rejoins", Json::U64(self.rejoins))
            .with(
                "in_rotation",
                Json::U64(self.in_rotation.iter().filter(|&&b| b).count() as u64),
            )
    }
}

/// Run the LB phase over `profiles` (canonical machine order) and the
/// matching fault plan rows. Serial and fully deterministic.
///
/// The timers scale to the warm service latency: a dispatch times out
/// after 8× it, an unanswered first dispatch is hedged after 3×, and
/// retries back off from 1×, doubling per attempt with seeded jitter.
/// Each machine is probed 24 times per window.
pub(crate) fn run_lb(cfg: &LbCfg, profiles: &[NodeProfile], faults: &[MachineFaults]) -> LbResult {
    assert_eq!(profiles.len(), faults.len(), "one fault row per profile");
    let warm = cfg.warm_latency.max(1_000);
    let (timeout, backoff_base, hedge_after) = (warm * 8, warm, warm * 3);
    let probe_interval = (cfg.window / 24).max(1);
    let mut rng = SplitMix64::new(cfg.seed ^ 0x1b);
    let mut machines: Vec<MachineView> = profiles
        .iter()
        .zip(faults.iter())
        .map(|(p, f)| {
            let warm = if p.warm_latency > 0.0 {
                p.warm_latency
            } else {
                backoff_base as f64
            };
            let warm = (warm * f.slow_factor).ceil() as u64;
            let cold = if p.cold_latency > p.warm_latency {
                (p.cold_latency * f.slow_factor).ceil() as u64
            } else {
                warm * 2
            };
            let cold_until = f.crash_at.map(|at| {
                let up = at.saturating_add(f.downtime);
                (up, up.saturating_add(timeout * 2))
            });
            MachineView {
                faults: f.clone(),
                warm: warm.max(1),
                cold: cold.max(1),
                cold_until,
                capacity: p.cores.max(1),
                outstanding: 0,
                lb: LbState::Healthy,
                fail_streak: 0,
                dispatched: 0,
                completed: 0,
                ejections: 0,
                rejoins: 0,
            }
        })
        .collect();

    // Seed the event queue: the open-loop arrival stream and every
    // machine's probe train. The engine pops in `(time, seq)` order.
    let mut q: Engine<Ev> = Engine::new();
    let mut reqs: Vec<Req> = Vec::new();
    let interval = Cycles::FREQ_HZ as f64 / cfg.fleet_rps.max(1.0);
    let mut t = 0.0f64;
    loop {
        t += interval * rng.exponential(1.0);
        if t >= cfg.window as f64 {
            break;
        }
        let req = reqs.len() as u32;
        reqs.push(Req {
            arrival: t as u64,
            state: ReqState::Pending,
            retried: false,
            hedged: false,
        });
        q.schedule_at(Cycles::new(t as u64), Ev::Dispatch { req, attempt: 0 });
    }
    for m in 0..machines.len() as u32 {
        // Stagger probe phase per machine so probe bursts don't align.
        let phase = (u64::from(m).wrapping_mul(0x9e37_79b9)) % probe_interval;
        q.schedule_at(Cycles::new(phase), Ev::Probe { machine: m });
    }

    let mut rr = 0usize; // round-robin cursor
    let mut out = LbResult {
        offered: reqs.len() as u64,
        served_first: 0,
        served_retried: 0,
        hedge_wins: 0,
        failed: Vec::new(),
        latency_sum: 0,
        latency_max: 0,
        ejections: 0,
        rejoins: 0,
        in_rotation: Vec::new(),
        dispatched: Vec::new(),
    };
    let fail =
        |out: &mut LbResult, e: RequestError| match out.failed.iter_mut().find(|(k, _)| *k == e) {
            Some((_, n)) => *n += 1,
            None => {
                out.failed.push((e, 1));
                out.failed.sort();
            }
        };
    let drain_deadline = cfg.window * 2 + timeout * (u64::from(MAX_RETRIES) + 2);

    while let Some(ev) = q.pop() {
        let time = q.now().as_u64();
        if time > drain_deadline {
            break;
        }
        match ev {
            Ev::Dispatch { req, attempt } => {
                if reqs[req as usize].state != ReqState::Pending {
                    continue;
                }
                // Pick the next in-rotation machine round-robin.
                let n = machines.len();
                let pick = (0..n)
                    .map(|k| (rr + k) % n)
                    .find(|&i| machines[i].lb == LbState::Healthy);
                let Some(i) = pick else {
                    if attempt >= MAX_RETRIES {
                        reqs[req as usize].state = ReqState::Failed(RequestError::NoHealthyMachine);
                        fail(&mut out, RequestError::NoHealthyMachine);
                    } else {
                        let backoff = backoff_base << attempt;
                        let jitter = (backoff as f64 * rng.next_f64() * 0.5) as u64;
                        reqs[req as usize].retried = true;
                        q.schedule_at(
                            Cycles::new(time + backoff + jitter),
                            Ev::Dispatch {
                                req,
                                attempt: attempt + 1,
                            },
                        );
                    }
                    continue;
                };
                rr = (i + 1) % n;
                dispatch_to(
                    &mut machines,
                    &mut q,
                    &mut rng,
                    timeout,
                    time,
                    req,
                    attempt,
                    i as u32,
                    false,
                );
                if attempt == 0 && !reqs[req as usize].hedged {
                    q.schedule_at(Cycles::new(time + hedge_after), Ev::Hedge { req, attempt });
                }
            }
            Ev::Hedge { req, attempt } => {
                let r = &mut reqs[req as usize];
                if r.state != ReqState::Pending || r.hedged {
                    continue;
                }
                let n = machines.len();
                let pick = (0..n)
                    .map(|k| (rr + k) % n)
                    .find(|&i| machines[i].lb == LbState::Healthy);
                if let Some(i) = pick {
                    r.hedged = true;
                    rr = (i + 1) % n;
                    dispatch_to(
                        &mut machines,
                        &mut q,
                        &mut rng,
                        timeout,
                        time,
                        req,
                        attempt,
                        i as u32,
                        true,
                    );
                }
            }
            Ev::Response {
                req,
                machine,
                hedge,
            } => {
                let m = &mut machines[machine as usize];
                m.outstanding = m.outstanding.saturating_sub(1);
                m.completed += 1;
                m.fail_streak = 0;
                let r = &mut reqs[req as usize];
                if r.state != ReqState::Pending {
                    continue; // hedge twin already won, or late after failure
                }
                r.state = ReqState::Served;
                if r.retried {
                    out.served_retried += 1;
                } else {
                    out.served_first += 1;
                }
                if hedge {
                    out.hedge_wins += 1;
                }
                let lat = time - r.arrival;
                out.latency_sum += lat;
                out.latency_max = out.latency_max.max(lat);
            }
            Ev::Timeout {
                req,
                attempt,
                machine,
            } => {
                let m = &mut machines[machine as usize];
                m.outstanding = m.outstanding.saturating_sub(1);
                observe_failure(m, &mut out);
                let r = &mut reqs[req as usize];
                if r.state != ReqState::Pending {
                    continue;
                }
                if attempt >= MAX_RETRIES {
                    r.state = ReqState::Failed(RequestError::TimedOut);
                    fail(&mut out, RequestError::TimedOut);
                } else {
                    // Jittered exponential backoff, chaos-ladder style.
                    let backoff = backoff_base << attempt;
                    let jitter = (backoff as f64 * rng.next_f64() * 0.5) as u64;
                    r.retried = true;
                    q.schedule_at(
                        Cycles::new(time + backoff + jitter),
                        Ev::Dispatch {
                            req,
                            attempt: attempt + 1,
                        },
                    );
                }
            }
            Ev::Probe { machine } => {
                let up = machines[machine as usize].faults.reachable_at(time);
                let m = &mut machines[machine as usize];
                match (m.lb, up) {
                    (LbState::Healthy, true) => m.fail_streak = 0,
                    (LbState::Healthy, false) => observe_failure(m, &mut out),
                    (LbState::Ejected, true) => m.lb = LbState::Probation { acks: 1 },
                    (LbState::Ejected, false) => {}
                    (LbState::Probation { acks }, true) => {
                        if acks + 1 >= PROBATION_ACKS {
                            m.lb = LbState::Healthy;
                            m.fail_streak = 0;
                            m.rejoins += 1;
                            out.rejoins += 1;
                        } else {
                            m.lb = LbState::Probation { acks: acks + 1 };
                        }
                    }
                    (LbState::Probation { .. }, false) => m.lb = LbState::Ejected,
                }
                // The probe train (and with it the LB's health state)
                // ends with the arrival window; the drain period only
                // settles in-flight requests.
                if time + probe_interval <= cfg.window {
                    q.schedule_at(Cycles::new(time + probe_interval), Ev::Probe { machine });
                }
            }
        }
    }

    // Anything still pending when the queue drains (shouldn't happen,
    // but accounting must be total): typed-fail it.
    for r in reqs.iter_mut() {
        if r.state == ReqState::Pending {
            r.state = ReqState::Failed(RequestError::TimedOut);
            fail(&mut out, RequestError::TimedOut);
        }
    }
    out.in_rotation = machines.iter().map(|m| m.lb != LbState::Ejected).collect();
    out.dispatched = machines.iter().map(|m| m.dispatched).collect();
    out
}

/// Send attempt `attempt` of `req` to machine `i` at `time`; schedules
/// either the Response (machine reachable through the service) or the
/// Timeout.
#[allow(clippy::too_many_arguments)]
fn dispatch_to(
    machines: &mut [MachineView],
    q: &mut Engine<Ev>,
    rng: &mut SplitMix64,
    timeout: u64,
    time: u64,
    req: u32,
    attempt: u32,
    i: u32,
    hedge: bool,
) {
    let m = &mut machines[i as usize];
    m.dispatched += 1;
    let jitter = 0.9 + 0.2 * rng.next_f64();
    let svc = m.service_latency(time, jitter);
    let done = time + svc;
    let crash_mid = m
        .faults
        .crash_at
        .map(|at| time < at && at <= done)
        .unwrap_or(false);
    let ok = m.faults.reachable_at(time) && m.faults.reachable_at(done) && !crash_mid;
    m.outstanding += 1;
    if ok && svc < timeout {
        q.schedule_at(
            Cycles::new(done),
            Ev::Response {
                req,
                machine: i,
                hedge,
            },
        );
    } else {
        q.schedule_at(
            Cycles::new(time + timeout),
            Ev::Timeout {
                req,
                attempt,
                machine: i,
            },
        );
    }
}

/// A request timeout or failed probe against an in-rotation machine:
/// bump its failure streak and eject it when the streak crosses the
/// threshold.
fn observe_failure(m: &mut MachineView, out: &mut LbResult) {
    if m.lb == LbState::Ejected {
        return;
    }
    m.fail_streak += 1;
    if m.fail_streak >= EJECT_AFTER {
        m.ejections += 1;
        out.ejections += 1;
        m.lb = LbState::Ejected;
        m.fail_streak = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FleetFaultPlan, FleetFaultSpec};
    use tlbdown_sim::Counter;

    fn profile(id: u32, warm: f64) -> NodeProfile {
        NodeProfile {
            machine_id: id,
            cores: 16,
            requests: 1000,
            turnovers: 0,
            lost_in_flight: 0,
            boots: 1,
            warm_latency: warm,
            cold_latency: warm * 3.0,
            violations: 0,
            shootdowns: 10,
            shootdown_cost_cycles: 200_000,
            sim_cycles: 1_000_000,
            digest: id as u64,
            counters: Counter::new(),
        }
    }

    fn healthy_fleet(n: u32) -> (Vec<NodeProfile>, Vec<MachineFaults>) {
        let profiles = (0..n).map(|i| profile(i, 50_000.0)).collect();
        let faults = vec![MachineFaults::healthy(); n as usize];
        (profiles, faults)
    }

    #[test]
    fn healthy_fleet_serves_everything_first_try() {
        let (profiles, faults) = healthy_fleet(8);
        let cfg = LbCfg {
            window: 40_000_000,
            fleet_rps: 40_000.0,
            warm_latency: 50_000,
            seed: 0x1de,
        };
        let r = run_lb(&cfg, &profiles, &faults);
        assert!(r.offered > 100, "window must generate load: {}", r.offered);
        assert!(r.fully_accounted());
        assert_eq!(
            r.failed_total(),
            0,
            "healthy fleet must not fail: {:?}",
            r.failed
        );
        assert_eq!(r.served_retried, 0);
        assert!(r.in_rotation.iter().all(|&b| b));
    }

    #[test]
    fn lb_is_deterministic() {
        let spec = FleetFaultSpec::combined();
        let n = 16u32;
        let window = 40_000_000u64;
        let plan = FleetFaultPlan::new(&spec, 42, n, window);
        let profiles: Vec<_> = (0..n).map(|i| profile(i, 50_000.0)).collect();
        let cfg = LbCfg {
            window,
            fleet_rps: 40_000.0,
            warm_latency: 50_000,
            seed: 7,
        };
        let a = run_lb(&cfg, &profiles, &plan.machines);
        let b = run_lb(&cfg, &profiles, &plan.machines);
        assert_eq!(a.to_json(window).render(), b.to_json(window).render());
        assert_eq!(a.dispatched, b.dispatched);
    }

    #[test]
    fn crashed_machines_are_ejected_and_rejoin_after_recovery() {
        let n = 8u32;
        let window = 40_000_000u64;
        let mut faults = vec![MachineFaults::healthy(); n as usize];
        // Machine 3 goes dark for a quarter of the window, then returns.
        faults[3].crash_at = Some(window / 4);
        faults[3].downtime = window / 4;
        // Machine 5 dies and never comes back inside the window.
        faults[5].crash_at = Some(window / 2);
        faults[5].downtime = window;
        let profiles: Vec<_> = (0..n).map(|i| profile(i, 50_000.0)).collect();
        let cfg = LbCfg {
            window,
            fleet_rps: 40_000.0,
            warm_latency: 50_000,
            seed: 11,
        };
        let r = run_lb(&cfg, &profiles, &faults);
        assert!(r.fully_accounted());
        assert!(
            r.ejections >= 2,
            "both crashed machines must eject: {}",
            r.ejections
        );
        assert!(r.rejoins >= 1, "the recovering machine must rejoin");
        assert!(!r.in_rotation[5], "the dead machine must end ejected");
        assert!(
            r.in_rotation[3],
            "the recovered machine must end in rotation"
        );
        assert!(r.served() > 0);
    }

    #[test]
    fn retries_and_hedges_mask_a_flaky_machine() {
        let n = 4u32;
        let window = 40_000_000u64;
        let mut faults = vec![MachineFaults::healthy(); n as usize];
        // One machine partitions for a long stretch mid-window.
        faults[1].partition = Some((window / 8, window / 2));
        let profiles: Vec<_> = (0..n).map(|i| profile(i, 50_000.0)).collect();
        let cfg = LbCfg {
            window,
            fleet_rps: 20_000.0,
            warm_latency: 50_000,
            seed: 3,
        };
        let r = run_lb(&cfg, &profiles, &faults);
        assert!(r.fully_accounted());
        assert!(
            r.served_retried > 0 || r.hedge_wins > 0,
            "the partition must be masked by retry or hedge: {:?}",
            (r.served_retried, r.hedge_wins)
        );
        // The masked fleet still serves nearly everything.
        assert!(
            r.failed_total() * 20 <= r.offered,
            "too many failures: {} of {}",
            r.failed_total(),
            r.offered
        );
    }
}
