//! The mobility wrappers of Figure 5: `mwWebbot` carries the Webbot
//! binary to the web server, runs it there through `ag_exec`, performs the
//! second validation step on the rejected external URIs, and ships the
//! combined report home.
//!
//! Both the Webbot and `mwWebbot` are "binaries" in this reproduction's
//! sense: signed native artifacts executed by `vm_bin` through the
//! host's [`NativeRegistry`](tacoma_core::NativeRegistry) (see the workspace DESIGN.md for the
//! substitution rationale). Their briefcase payloads are padded to
//! realistic binary sizes so moving them costs real bandwidth.

use tacoma_briefcase::{folders, Briefcase};
use tacoma_core::{AgentSpec, Architecture, ArtifactBundle, BinaryArtifact, HostHooks, TaxHost};

use crate::{LinkIssue, Rejected, Webbot, WebbotConfig, WebbotReport};

/// Registry key of the Webbot binary.
pub const WEBBOT_KEY: &str = "webbot";
/// Registry key of the mwWebbot mobility wrapper binary.
pub const MW_WEBBOT_KEY: &str = "mw_webbot";
/// Registry key of the stationary driver binary (the baseline).
pub const STATIONARY_KEY: &str = "stationary_webbot";

/// Size of the Webbot "binary" on the wire (a period-realistic statically
/// linked C program).
pub const WEBBOT_BINARY_SIZE: usize = 250_000;
/// Size of the mwWebbot wrapper binary.
pub const MW_BINARY_SIZE: usize = 60_000;

/// The cabinet drawer reports are parked in when a run completes.
pub const REPORT_DRAWER: &str = "webbot-report";

/// CPU cost per external `head` check in the second step.
const EXT_CHECK_WORK_NS: u64 = 200_000;

/// The Webbot artifact bundle — one payload per architecture, as §5's
/// "an agent may submit a list of binaries matching different
/// architectures to ag_exec".
pub fn webbot_bundle() -> ArtifactBundle {
    ArtifactBundle::new()
        .with(BinaryArtifact::native(
            WEBBOT_KEY,
            Architecture::simulated(),
            WEBBOT_KEY,
            WEBBOT_BINARY_SIZE,
        ))
        .with(BinaryArtifact::native(
            WEBBOT_KEY,
            Architecture::i386_linux(),
            WEBBOT_KEY,
            WEBBOT_BINARY_SIZE,
        ))
}

/// The mwWebbot artifact bundle.
pub fn mw_webbot_bundle() -> ArtifactBundle {
    ArtifactBundle::new().with(BinaryArtifact::native(
        MW_WEBBOT_KEY,
        Architecture::simulated(),
        MW_WEBBOT_KEY,
        MW_BINARY_SIZE,
    ))
}

/// Installs the Webbot, mwWebbot, and stationary-driver programs on a
/// host's native registry. The Webbot must be installed wherever it may
/// execute (every host, like any COTS binary fetched from the W3C).
pub fn install_programs(host: &TaxHost) {
    host.install_native(WEBBOT_KEY, |bc, hooks| {
        let Some(config) = WebbotConfig::read_from(bc) else {
            bc.set_single(folders::STATUS, "error: webbot: missing WBT config");
            return Ok(tacoma_core::Outcome::Exit(2));
        };
        let report = Webbot::new().run(&config, hooks);
        report.write_to(bc);
        Ok(tacoma_core::Outcome::Exit(0))
    });

    host.install_native(MW_WEBBOT_KEY, |bc, hooks| Ok(mw_webbot_main(bc, hooks)));

    host.install_native(STATIONARY_KEY, |bc, hooks| Ok(stationary_main(bc, hooks)));

    host.install_native(crate::tour::TOUR_KEY, |bc, hooks| {
        Ok(crate::tour::tour_main(bc, hooks))
    });
}

/// Builds the Figure-5 mobile agent: `rwWebbot(mwWebbot(Webbot))`.
///
/// * `target` — the web server host to scan.
/// * `home` — where the report must come back to.
/// * `monitor` — optional URI for the rwWebbot monitoring layer
///   (`ag_log` somewhere); `None` omits the outer wrapper.
pub fn mw_webbot_spec(
    target: &str,
    home: &str,
    config: &WebbotConfig,
    check_externals: bool,
    monitor: Option<&str>,
) -> AgentSpec {
    let mut state = Briefcase::new();
    config.write_to(&mut state);

    let mut spec = AgentSpec::bundle("mwWebbot", mw_webbot_bundle())
        .folder("MW:PHASE", ["outbound"])
        .folder("MW:TARGET", [target])
        .folder("MW:HOME", [home])
        .folder("MW:CHECK-EXT", [if check_externals { "1" } else { "0" }])
        .folder("EXEC-BIN", [webbot_bundle().encode()]);
    // Copy the Webbot arguments into the agent's briefcase.
    for f in state {
        spec = spec.folder(f.name().to_owned(), f.into_elements());
    }
    if let Some(monitor) = monitor {
        spec = spec.wrap(format!("monitor:{monitor}"));
    }
    spec
}

/// Builds the stationary baseline: the same Webbot driven from wherever
/// it is launched, pulling pages over the network.
pub fn stationary_spec(config: &WebbotConfig, check_externals: bool) -> AgentSpec {
    let mut state = Briefcase::new();
    config.write_to(&mut state);
    let bundle = ArtifactBundle::new().with(BinaryArtifact::native(
        STATIONARY_KEY,
        Architecture::simulated(),
        STATIONARY_KEY,
        MW_BINARY_SIZE,
    ));
    let mut spec = AgentSpec::bundle("webbot", bundle)
        .folder("MW:CHECK-EXT", [if check_externals { "1" } else { "0" }]);
    for f in state {
        spec = spec.folder(f.name().to_owned(), f.into_elements());
    }
    spec
}

/// The mwWebbot program: a phase machine, because TACOMA agents restart
/// `main` at every hop with their state in the briefcase.
fn mw_webbot_main(bc: &mut Briefcase, hooks: &mut dyn HostHooks) -> tacoma_core::Outcome {
    let phase = bc.single_str("MW:PHASE").unwrap_or("outbound").to_owned();
    match phase.as_str() {
        "outbound" => {
            bc.set_single("MW:T0-MS", hooks.now_ms());
            let Ok(target) = bc.single_str("MW:TARGET").map(str::to_owned) else {
                return tacoma_core::Outcome::Exit(2);
            };
            bc.set_single("MW:PHASE", "scan");
            let dest = format!("tacoma://{target}/vm_bin");
            match hooks.go(&dest, bc) {
                tacoma_core::GoDecision::Moved => tacoma_core::Outcome::Moved { to: dest },
                tacoma_core::GoDecision::Unreachable => {
                    hooks.display(&format!("mwWebbot: unable to reach {dest}"));
                    tacoma_core::Outcome::Exit(3)
                }
            }
        }
        "scan" => {
            bc.set_single("MW:T-ARRIVE-MS", hooks.now_ms());

            // Step one: run the Webbot binary here via ag_exec (§5).
            let mut request = Briefcase::new();
            request.set_single(folders::COMMAND, "exec");
            if let Ok(bin) = bc.element("EXEC-BIN", 0) {
                request.set_single("EXEC-BIN", bin.clone());
            }
            // Forward the Webbot arguments.
            for name in [
                "WBT:START",
                "WBT:DEPTH",
                "WBT:PREFIX",
                "WBT:PAGE-WORK-NS",
                "WBT:BYTE-WORK-NS",
            ] {
                if let Some(folder) = bc.folder(name) {
                    let mut copied = tacoma_briefcase::Folder::new(name);
                    copied.extend(folder.iter().cloned());
                    request.insert_folder(copied);
                }
            }
            let Some(reply) = hooks.meet("ag_exec", &request) else {
                hooks.display("mwWebbot: ag_exec unavailable");
                return tacoma_core::Outcome::Exit(4);
            };
            let mut report = WebbotReport::read_from(&reply);
            bc.set_single("MW:T-SCAN-DONE-MS", hooks.now_ms());

            // Step two: validate the URIs Webbot rejected for pointing
            // outside the prefix.
            if bc.single_str("MW:CHECK-EXT") == Ok("1") {
                let work_list: Vec<Rejected> = report.prefix_rejected().cloned().collect();
                let externally_invalid =
                    Webbot::new().check_uris(work_list.iter(), hooks, EXT_CHECK_WORK_NS);
                bc.set_single("MW:EXT-CHECKED", work_list.len() as i64);
                report.links_checked += work_list.len() as u64;
                report.invalid.extend(externally_invalid);
            }
            bc.set_single("MW:T-EXT-DONE-MS", hooks.now_ms());

            // Only the condensed result travels home: drop the binary and
            // write the combined report ("the resulting list of invalid
            // URIs and the referring pages is then transmitted back").
            bc.remove_folder("EXEC-BIN");
            report.write_to(bc);

            let Ok(home) = bc.single_str("MW:HOME").map(str::to_owned) else {
                return tacoma_core::Outcome::Exit(2);
            };
            bc.set_single("MW:PHASE", "report");
            let dest = format!("tacoma://{home}/vm_bin");
            match hooks.go(&dest, bc) {
                tacoma_core::GoDecision::Moved => tacoma_core::Outcome::Moved { to: dest },
                tacoma_core::GoDecision::Unreachable => {
                    hooks.display(&format!("mwWebbot: unable to return to {dest}"));
                    tacoma_core::Outcome::Exit(5)
                }
            }
        }
        "report" => {
            bc.set_single("MW:T-HOME-MS", hooks.now_ms());
            park_report(bc, hooks);
            let report = WebbotReport::read_from(bc);
            hooks.display(&format!("mwWebbot done: {}", report.summary()));
            tacoma_core::Outcome::Exit(0)
        }
        other => {
            hooks.display(&format!("mwWebbot: unknown phase {other:?}"));
            tacoma_core::Outcome::Exit(9)
        }
    }
}

/// The stationary driver: run the robot from here, optionally check the
/// externals, park the report.
fn stationary_main(bc: &mut Briefcase, hooks: &mut dyn HostHooks) -> tacoma_core::Outcome {
    bc.set_single("MW:T0-MS", hooks.now_ms());
    let Some(config) = WebbotConfig::read_from(bc) else {
        return tacoma_core::Outcome::Exit(2);
    };
    let mut report = Webbot::new().run(&config, hooks);
    bc.set_single("MW:T-SCAN-DONE-MS", hooks.now_ms());
    if bc.single_str("MW:CHECK-EXT") == Ok("1") {
        let work_list: Vec<Rejected> = report.prefix_rejected().cloned().collect();
        let externally_invalid =
            Webbot::new().check_uris(work_list.iter(), hooks, EXT_CHECK_WORK_NS);
        report.links_checked += work_list.len() as u64;
        report.invalid.extend(externally_invalid);
    }
    bc.set_single("MW:T-EXT-DONE-MS", hooks.now_ms());
    bc.set_single("MW:T-HOME-MS", hooks.now_ms());
    report.write_to(bc);
    park_report(bc, hooks);
    hooks.display(&format!("webbot done: {}", report.summary()));
    tacoma_core::Outcome::Exit(0)
}

/// Parks the whole agent briefcase (report + timing stamps) in the local
/// cabinet under [`REPORT_DRAWER`].
fn park_report(bc: &Briefcase, hooks: &mut dyn HostHooks) {
    let mut request = Briefcase::new();
    request.set_single(folders::COMMAND, "store");
    request.append(folders::ARGS, REPORT_DRAWER);
    request.set_single("CABINET-DATA", bc.encode());
    if hooks.meet("ag_cabinet", &request).is_none() {
        hooks.display("warning: could not park report in ag_cabinet");
    }
}

/// A parsed set of the run's timing stamps, all in virtual milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStamps {
    /// Launch time.
    pub t0: i64,
    /// Arrival at the server (mobile only; equals `t0` for stationary).
    pub arrive: i64,
    /// Scan complete.
    pub scan_done: i64,
    /// External checks complete.
    pub ext_done: i64,
    /// Report back home.
    pub home: i64,
}

impl RunStamps {
    /// Reads stamps from a parked report briefcase.
    pub fn read_from(bc: &Briefcase) -> RunStamps {
        let get = |name: &str| bc.single_i64(name).unwrap_or(0);
        let t0 = get("MW:T0-MS");
        let arrive = bc.single_i64("MW:T-ARRIVE-MS").unwrap_or(t0);
        RunStamps {
            t0,
            arrive,
            scan_done: get("MW:T-SCAN-DONE-MS"),
            ext_done: get("MW:T-EXT-DONE-MS"),
            home: get("MW:T-HOME-MS"),
        }
    }

    /// The scan phase duration in milliseconds — the paper's measured
    /// quantity.
    pub fn scan_ms(&self) -> i64 {
        self.scan_done - self.arrive
    }

    /// Whole-journey duration in milliseconds.
    pub fn total_ms(&self) -> i64 {
        self.home - self.t0
    }

    /// Ensures the stamps are monotone (a report that travelled through
    /// broken clocks is suspect).
    pub fn is_monotone(&self) -> bool {
        self.t0 <= self.arrive
            && self.arrive <= self.scan_done
            && self.scan_done <= self.ext_done
            && self.ext_done <= self.home
    }
}

/// Re-export for harnesses that assemble issues.
pub type ExternalIssue = LinkIssue;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundles_cost_realistic_bytes() {
        let w = webbot_bundle().encode();
        assert!(
            w.len() >= 2 * WEBBOT_BINARY_SIZE,
            "two architectures carried"
        );
        let m = mw_webbot_bundle().encode();
        assert!(m.len() >= MW_BINARY_SIZE);
    }

    #[test]
    fn spec_carries_binary_config_and_wrapper() {
        let config = WebbotConfig::scan_site("server");
        let spec = mw_webbot_spec(
            "server",
            "client",
            &config,
            true,
            Some("tacoma://client/ag_log"),
        );
        let principal = tacoma_core::Principal::new("p").unwrap();
        let bc = match spec_briefcase(&spec, &principal) {
            Ok(bc) => bc,
            Err(e) => panic!("{e}"),
        };
        assert_eq!(bc.single_str("MW:PHASE").unwrap(), "outbound");
        assert_eq!(bc.single_str("MW:TARGET").unwrap(), "server");
        assert!(bc.element("EXEC-BIN", 0).unwrap().len() >= WEBBOT_BINARY_SIZE);
        assert_eq!(bc.single_str("WBT:PREFIX").unwrap(), "http://server/");
        assert_eq!(bc.folder("WRAPPERS").unwrap().len(), 1);
    }

    // AgentSpec::build_briefcase is crate-private to tacoma-core; go
    // through a tiny system launch instead.
    fn spec_briefcase(
        spec: &AgentSpec,
        _principal: &tacoma_core::Principal,
    ) -> Result<Briefcase, tacoma_core::TaxError> {
        let mut system = tacoma_core::SystemBuilder::new().host("probe")?.build();
        let host = system.host("probe").unwrap();
        install_programs(&host);
        let address = system.launch("probe", spec.clone())?;
        // The task is queued but unrun: read its briefcase via the
        // registry? Simpler: run and read the parked state is overkill —
        // instead reconstruct from a fresh build by launching on a host
        // with no scheduler run. We can reach the queued briefcase through
        // the host's task queue indirectly: pop it.
        let _ = address;
        // Peek: the task queue holds exactly one task.
        let task_bc = host.peek_task_briefcase().expect("briefcase queued");
        Ok(task_bc)
    }

    #[test]
    fn stamps_roundtrip_and_monotonicity() {
        let mut bc = Briefcase::new();
        bc.set_single("MW:T0-MS", 10i64);
        bc.set_single("MW:T-ARRIVE-MS", 20i64);
        bc.set_single("MW:T-SCAN-DONE-MS", 50i64);
        bc.set_single("MW:T-EXT-DONE-MS", 60i64);
        bc.set_single("MW:T-HOME-MS", 70i64);
        let stamps = RunStamps::read_from(&bc);
        assert!(stamps.is_monotone());
        assert_eq!(stamps.scan_ms(), 30);
        assert_eq!(stamps.total_ms(), 60);
    }

    #[test]
    fn stationary_stamps_default_arrive_to_t0() {
        let mut bc = Briefcase::new();
        bc.set_single("MW:T0-MS", 5i64);
        bc.set_single("MW:T-SCAN-DONE-MS", 25i64);
        let stamps = RunStamps::read_from(&bc);
        assert_eq!(stamps.arrive, 5);
        assert_eq!(stamps.scan_ms(), 20);
    }
}
