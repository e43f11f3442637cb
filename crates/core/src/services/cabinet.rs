//! `ag_cabinet`: persistent briefcase storage (the paper's `ag_ccabinet`).
//!
//! Agents park whole briefcases here between visits — a filing cabinet for
//! state that should stay at a site rather than travel.

use std::collections::BTreeMap;

use parking_lot::Mutex;
use tacoma_briefcase::Briefcase;

use crate::service::{arg, command_of, error_reply, ok_reply, ServiceAgent, ServiceEnv};

/// Request/reply folder carrying an encoded briefcase.
pub const CABINET_DATA_FOLDER: &str = "CABINET-DATA";

/// The briefcase cabinet. Commands: `store <name>` (with `CABINET-DATA`),
/// `fetch <name>` → `CABINET-DATA`, `delete <name>`, `list` → `NAMES`.
///
/// Drawers are scoped by requesting principal: agents cannot read each
/// other's parked state.
#[derive(Debug, Default)]
pub struct AgCabinet {
    drawers: Mutex<BTreeMap<(String, String), Vec<u8>>>,
}

impl AgCabinet {
    /// A new, empty cabinet.
    pub fn new() -> Self {
        AgCabinet::default()
    }
}

impl ServiceAgent for AgCabinet {
    fn name(&self) -> &str {
        "ag_cabinet"
    }

    fn handle(&self, request: &mut Briefcase, env: &mut ServiceEnv<'_>) -> Briefcase {
        let owner = env.requester.to_string();
        let mut drawers = self.drawers.lock();
        match command_of(request) {
            "store" => {
                let Some(name) = arg(request, 0).map(str::to_owned) else {
                    return error_reply("store: missing name");
                };
                let Ok(data) = request.element(CABINET_DATA_FOLDER, 0) else {
                    return error_reply("store: missing CABINET-DATA");
                };
                // Validate before accepting: a cabinet of garbage helps no
                // one.
                if Briefcase::decode_bytes(data.bytes()).is_err() {
                    return error_reply("store: CABINET-DATA is not a briefcase");
                }
                drawers.insert((owner, name), data.data().to_vec());
                ok_reply()
            }
            "fetch" => {
                let Some(name) = arg(request, 0).map(str::to_owned) else {
                    return error_reply("fetch: missing name");
                };
                match drawers.get(&(owner, name.clone())) {
                    Some(data) => {
                        let mut reply = ok_reply();
                        reply.set_single(CABINET_DATA_FOLDER, data.clone());
                        reply
                    }
                    None => error_reply(format!("fetch: no drawer {name:?}")),
                }
            }
            "delete" => {
                let Some(name) = arg(request, 0).map(str::to_owned) else {
                    return error_reply("delete: missing name");
                };
                if drawers.remove(&(owner, name.clone())).is_some() {
                    ok_reply()
                } else {
                    error_reply(format!("delete: no drawer {name:?}"))
                }
            }
            "list" => {
                let mut reply = ok_reply();
                for (stored_owner, name) in drawers.keys() {
                    if stored_owner == &owner {
                        reply.append("NAMES", name.as_str());
                    }
                }
                reply
            }
            other => error_reply(format!("ag_cabinet: unknown command {other:?}")),
        }
    }
}
