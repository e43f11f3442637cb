//! Multi-hop webbot tours: one agent, many servers, one merged report.
//!
//! The Figure-5 `mwWebbot` visits a single server. A tour generalizes it:
//! the agent carries the Webbot binary along a planned itinerary, scans
//! each stop's site locally via `ag_exec`, merges the per-site reports in
//! its briefcase, and ships the combined report home. The visit order is
//! an input — the scenario crate's planner picks it to minimize virtual
//! makespan over heterogeneous links; the naive baseline visits stops in
//! request order.
//!
//! On hostile networks a stop may be down or partitioned when the agent
//! tries to hop; the tour skips it (recording the miss in
//! `TOUR:UNREACHABLE`) and presses on, so a crash scheduled by a scenario
//! costs coverage, not the whole tour.
//!
//! The §4 group-communication wrapper realizes report fan-out: a tour
//! built with replica homes is wrapped in `group:fifo:…` over the
//! replicas' `ag_cabinet` services, and on completion multicasts the
//! parked report to every one of them with a single send to the literal
//! `group` target.

use tacoma_briefcase::{folders, Briefcase};
use tacoma_core::wrappers::GROUP_TARGET;
use tacoma_core::{AgentSpec, HostHooks, Outcome};

use crate::mobile::{webbot_bundle, MW_BINARY_SIZE};
use crate::{WebbotConfig, WebbotReport};

/// Registry key of the tour-webbot binary.
pub const TOUR_KEY: &str = "tour_webbot";

/// The cabinet drawer tour reports are parked in (at home and at every
/// group replica).
pub const TOUR_DRAWER: &str = "tour-report";

/// Builds a tour agent visiting `stops` in the given order from `home`.
///
/// When `replicas` is non-empty the agent is wrapped in the §4
/// group-communication wrapper (FIFO order) over the replicas' cabinet
/// services, and the final report is multicast to all of them in
/// addition to being parked at home.
pub fn tour_spec(home: &str, stops: &[String], replicas: &[String]) -> AgentSpec {
    let mut spec = AgentSpec::bundle("tourWebbot", tour_bundle())
        .folder("TOUR:PHASE", ["outbound"])
        .folder("TOUR:HOME", [home])
        .folder("TOUR:STOPS", stops.iter().map(String::as_str))
        .folder("TOUR:IDX", ["0"])
        .folder("EXEC-BIN", [webbot_bundle().encode()]);
    if !replicas.is_empty() {
        let members: Vec<String> = replicas.iter().map(|h| format!("ag_cabinet@{h}")).collect();
        spec = spec
            .folder("TOUR:GROUP", ["1"])
            .wrap(format!("group:fifo:{}", members.join(",")));
    }
    spec
}

/// The tour driver's artifact bundle (same realistic wrapper-binary size
/// as `mwWebbot`).
pub fn tour_bundle() -> tacoma_core::ArtifactBundle {
    tacoma_core::ArtifactBundle::new().with(tacoma_core::BinaryArtifact::native(
        TOUR_KEY,
        tacoma_core::Architecture::simulated(),
        TOUR_KEY,
        MW_BINARY_SIZE,
    ))
}

fn stops_of(bc: &Briefcase) -> Vec<String> {
    bc.folder("TOUR:STOPS").map_or_else(Vec::new, |f| {
        f.iter()
            .filter_map(|e| e.as_str().ok().map(str::to_owned))
            .collect()
    })
}

fn idx_of(bc: &Briefcase) -> usize {
    bc.single_str("TOUR:IDX")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// Hops toward the next reachable stop at or after `idx`; falls through
/// to the report leg when the itinerary is exhausted.
fn advance(bc: &mut Briefcase, hooks: &mut dyn HostHooks, mut idx: usize) -> Outcome {
    let stops = stops_of(bc);
    while idx < stops.len() {
        let stop = &stops[idx];
        bc.set_single("TOUR:IDX", idx.to_string());
        bc.set_single("TOUR:PHASE", "scan");
        let dest = format!("tacoma://{stop}/vm_bin");
        match hooks.go(&dest, bc) {
            tacoma_core::GoDecision::Moved => return Outcome::Moved { to: dest },
            tacoma_core::GoDecision::Unreachable => {
                hooks.display(&format!("tourWebbot: skipping unreachable {stop}"));
                bc.append("TOUR:UNREACHABLE", stop.as_str());
                idx += 1;
            }
        }
    }
    head_home(bc, hooks)
}

fn head_home(bc: &mut Briefcase, hooks: &mut dyn HostHooks) -> Outcome {
    let Ok(home) = bc.single_str("TOUR:HOME").map(str::to_owned) else {
        return Outcome::Exit(2);
    };
    bc.set_single("TOUR:PHASE", "report");
    // The binary has done its job; only the merged report travels home.
    bc.remove_folder("EXEC-BIN");
    let dest = format!("tacoma://{home}/vm_bin");
    match hooks.go(&dest, bc) {
        tacoma_core::GoDecision::Moved => Outcome::Moved { to: dest },
        tacoma_core::GoDecision::Unreachable => {
            hooks.display(&format!("tourWebbot: unable to return to {dest}"));
            Outcome::Exit(5)
        }
    }
}

/// The tour program: a phase machine (TACOMA agents restart `main` at
/// every hop with their state in the briefcase).
pub(crate) fn tour_main(bc: &mut Briefcase, hooks: &mut dyn HostHooks) -> Outcome {
    let phase = bc.single_str("TOUR:PHASE").unwrap_or("outbound").to_owned();
    match phase.as_str() {
        "outbound" => {
            bc.set_single("TOUR:T0-MS", hooks.now_ms());
            advance(bc, hooks, 0)
        }
        "scan" => {
            let stops = stops_of(bc);
            let idx = idx_of(bc);
            let Some(here) = stops.get(idx) else {
                return Outcome::Exit(2);
            };

            // Scan this stop's site locally through ag_exec, §5-style.
            let mut request = Briefcase::new();
            request.set_single(folders::COMMAND, "exec");
            if let Ok(bin) = bc.element("EXEC-BIN", 0) {
                request.set_single("EXEC-BIN", bin.clone());
            }
            WebbotConfig::scan_site(here).write_to(&mut request);
            let Some(reply) = hooks.meet("ag_exec", &request) else {
                hooks.display(&format!("tourWebbot: ag_exec unavailable on {here}"));
                bc.append("TOUR:UNREACHABLE", here.as_str());
                return advance(bc, hooks, idx + 1);
            };
            let stop_report = WebbotReport::read_from(&reply);
            let mut merged = WebbotReport::read_from(bc);
            merged.merge(&stop_report);
            merged.write_to(bc);
            bc.append("TOUR:VISITED", here.as_str());

            advance(bc, hooks, idx + 1)
        }
        "report" => {
            bc.set_single("TOUR:T-HOME-MS", hooks.now_ms());
            let store = store_request(bc);
            if hooks.meet("ag_cabinet", &store).is_none() {
                hooks.display("warning: could not park tour report in ag_cabinet");
            }
            // §4 fan-out: one send to the literal group target; the
            // wrapper multicasts the store request to every replica's
            // cabinet service.
            if bc.single_str("TOUR:GROUP") == Ok("1") {
                hooks.activate(GROUP_TARGET, &store);
            }
            let report = WebbotReport::read_from(bc);
            hooks.display(&format!("tourWebbot done: {}", report.summary()));
            Outcome::Exit(0)
        }
        other => {
            hooks.display(&format!("tourWebbot: unknown phase {other:?}"));
            Outcome::Exit(9)
        }
    }
}

/// A cabinet `store` request carrying the whole tour briefcase (report,
/// visit log, timing stamps) into [`TOUR_DRAWER`].
fn store_request(bc: &Briefcase) -> Briefcase {
    let mut request = Briefcase::new();
    request.set_single(folders::COMMAND, "store");
    request.append(folders::ARGS, TOUR_DRAWER);
    request.set_single("CABINET-DATA", bc.encode());
    request
}

/// Timing and coverage parsed from a parked tour briefcase.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TourStamps {
    /// Launch time, virtual ms.
    pub t0: i64,
    /// Report-home time, virtual ms.
    pub home: i64,
    /// Stops scanned.
    pub visited: Vec<String>,
    /// Stops skipped as unreachable.
    pub unreachable: Vec<String>,
}

impl TourStamps {
    /// Reads stamps from a parked tour briefcase.
    pub fn read_from(bc: &Briefcase) -> TourStamps {
        let list = |name: &str| {
            bc.folder(name).map_or_else(Vec::new, |f| {
                f.iter()
                    .filter_map(|e| e.as_str().ok().map(str::to_owned))
                    .collect()
            })
        };
        TourStamps {
            t0: bc.single_i64("TOUR:T0-MS").unwrap_or(0),
            home: bc.single_i64("TOUR:T-HOME-MS").unwrap_or(0),
            visited: list("TOUR:VISITED"),
            unreachable: list("TOUR:UNREACHABLE"),
        }
    }

    /// The tour's virtual makespan in milliseconds: launch to report.
    pub fn makespan_ms(&self) -> i64 {
        self.home - self.t0
    }
}

/// Fetches a parked tour (merged report + stamps) from `host`'s cabinet,
/// or `None` if no tour has reported there. `owner_home` is the host the
/// tour launched from — cabinet drawers are scoped by owning principal,
/// including the copies the group wrapper fans out to replicas.
pub fn fetch_tour(
    system: &mut tacoma_core::TaxSystem,
    host: &str,
    owner_home: &str,
) -> Option<(WebbotReport, TourStamps)> {
    let owner = tacoma_core::Principal::local_system(owner_home);
    let parked = crate::fleet::fetch_parked(system, host, &owner, TOUR_DRAWER)?;
    Some((
        WebbotReport::read_from(&parked),
        TourStamps::read_from(&parked),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{FleetParams, FleetPlan};

    fn tour_system(pairs: &[(&str, &str)]) -> (tacoma_core::TaxSystem, FleetParams) {
        let plan = FleetPlan::from_pairs(
            pairs
                .iter()
                .map(|(c, s)| ((*c).to_owned(), (*s).to_owned())),
        );
        let params = FleetParams {
            plan,
            pages: 12,
            total_bytes: 120_000,
            seed: 99,
            max_depth: 3,
            link: tacoma_core::LinkSpec::lan_100mbit(),
            server_work_ns: tacoma_web::DEFAULT_SERVER_WORK_NS,
        };
        let system = crate::fleet::build_fleet(&params);
        (system, params)
    }

    #[test]
    fn tour_scans_every_stop_and_reports_home() {
        let (mut system, _) = tour_system(&[("home0", "s0"), ("home0", "s1"), ("home0", "s2")]);
        let stops: Vec<String> = ["s0", "s1", "s2"].map(str::to_owned).to_vec();
        system
            .launch("home0", tour_spec("home0", &stops, &[]))
            .unwrap();
        assert!(system.run_until_quiet().quiesced());

        let (report, stamps) =
            fetch_tour(&mut system, "home0", "home0").expect("tour reported home");
        assert_eq!(stamps.visited, stops);
        assert!(stamps.unreachable.is_empty());
        assert!(stamps.makespan_ms() > 0);
        // Three distinct sites merged into one report.
        assert!(report.pages_scanned > 0);
        assert!(report.links_checked > 0);
    }

    #[test]
    fn group_wrapper_fans_report_to_replicas() {
        let (mut system, _) = tour_system(&[("home0", "s0"), ("home1", "s0"), ("home2", "s0")]);
        let stops = vec!["s0".to_owned()];
        let replicas: Vec<String> = ["home1", "home2"].map(str::to_owned).to_vec();
        system
            .launch("home0", tour_spec("home0", &stops, &replicas))
            .unwrap();
        assert!(system.run_until_quiet().quiesced());

        let (home_report, _) =
            fetch_tour(&mut system, "home0", "home0").expect("tour reported home");
        for replica in ["home1", "home2"] {
            let (replica_report, stamps) = fetch_tour(&mut system, replica, "home0")
                .unwrap_or_else(|| panic!("{replica} got copy"));
            assert_eq!(replica_report.pages_scanned, home_report.pages_scanned);
            assert_eq!(stamps.visited, stops);
        }
    }

    #[test]
    fn unreachable_stop_is_skipped_not_fatal() {
        let (mut system, _) = tour_system(&[("home0", "s0"), ("home0", "s1")]);
        let dead = tacoma_core::HostId::new("s1").unwrap();
        system.network().crash_host(&dead);
        let stops: Vec<String> = ["s0", "s1"].map(str::to_owned).to_vec();
        system
            .launch("home0", tour_spec("home0", &stops, &[]))
            .unwrap();
        assert!(system.run_until_quiet().quiesced());

        let (_, stamps) = fetch_tour(&mut system, "home0", "home0").expect("tour reported home");
        assert_eq!(stamps.visited, vec!["s0".to_owned()]);
        assert_eq!(stamps.unreachable, vec!["s1".to_owned()]);
        // The miss is accounted as unreachable, not random loss.
        assert!(system.network().stats().total_unreachable() > 0);
    }

    #[test]
    fn spec_carries_itinerary_and_group_wrapper() {
        let stops = vec!["s1".to_owned(), "s2".to_owned()];
        let replicas = vec!["home0".to_owned(), "home1".to_owned()];
        let spec = tour_spec("home0", &stops, &replicas);
        let mut system = tacoma_core::SystemBuilder::new()
            .host("probe")
            .unwrap()
            .build();
        let host = system.host("probe").unwrap();
        crate::mobile::install_programs(&host);
        system.launch("probe", spec).unwrap();
        let bc = host.peek_task_briefcase().expect("briefcase queued");
        assert_eq!(bc.single_str("TOUR:PHASE").unwrap(), "outbound");
        assert_eq!(stops_of(&bc), stops);
        assert_eq!(bc.single_str("TOUR:GROUP").unwrap(), "1");
        let wrappers = bc.folder("WRAPPERS").unwrap();
        assert_eq!(wrappers.len(), 1);
        assert_eq!(
            wrappers.get(0).unwrap().as_str().unwrap(),
            "group:fifo:ag_cabinet@home0,ag_cabinet@home1"
        );
    }

    #[test]
    fn spec_without_replicas_has_no_wrapper() {
        let spec = tour_spec("home", &["s".to_owned()], &[]);
        let mut system = tacoma_core::SystemBuilder::new()
            .host("probe")
            .unwrap()
            .build();
        let host = system.host("probe").unwrap();
        crate::mobile::install_programs(&host);
        system.launch("probe", spec).unwrap();
        let bc = host.peek_task_briefcase().expect("briefcase queued");
        assert!(bc.folder("WRAPPERS").is_none());
        assert!(bc.single_str("TOUR:GROUP").is_err());
    }

    #[test]
    fn stamps_read_back() {
        let mut bc = Briefcase::new();
        bc.set_single("TOUR:T0-MS", 100i64);
        bc.set_single("TOUR:T-HOME-MS", 450i64);
        bc.append("TOUR:VISITED", "s1");
        bc.append("TOUR:VISITED", "s2");
        bc.append("TOUR:UNREACHABLE", "s3");
        let stamps = TourStamps::read_from(&bc);
        assert_eq!(stamps.makespan_ms(), 350);
        assert_eq!(stamps.visited, vec!["s1".to_owned(), "s2".to_owned()]);
        assert_eq!(stamps.unreachable, vec!["s3".to_owned()]);
    }
}
