//! `ag_fs`: the file-system service agent.
//!
//! "To gain access to the file-system, a mobile agent interacts with the
//! ag_fs or ag_ccabinet service agents" (§3.3). The file system here is a
//! per-host virtual store, so agents cannot touch the real disk.

use std::collections::BTreeMap;

use parking_lot::Mutex;
use tacoma_briefcase::Briefcase;
use tacoma_security::Rights;

use crate::service::{arg, command_of, error_reply, ok_reply, ServiceAgent, ServiceEnv};

/// Request/reply folder carrying file contents.
pub const DATA_FOLDER: &str = "DATA";

/// The file-system service. Commands:
///
/// * `write <path>` with `DATA` — requires [`Rights::FS_WRITE`]
/// * `read <path>` → `DATA` — requires [`Rights::FS_READ`]
/// * `stat <path>` → `SIZE` — requires [`Rights::FS_READ`]
/// * `list <prefix>` → `PATHS` — requires [`Rights::FS_READ`]
/// * `delete <path>` — requires [`Rights::FS_WRITE`]
#[derive(Debug, Default)]
pub struct AgFs {
    files: Mutex<BTreeMap<String, Vec<u8>>>,
}

impl AgFs {
    /// A new, empty file system.
    pub fn new() -> Self {
        AgFs::default()
    }
}

impl ServiceAgent for AgFs {
    fn name(&self) -> &str {
        "ag_fs"
    }

    fn handle(&self, request: &mut Briefcase, env: &mut ServiceEnv<'_>) -> Briefcase {
        let cmd = command_of(request).to_owned();
        let need = match cmd.as_str() {
            "read" | "stat" | "list" => Rights::FS_READ,
            "write" | "delete" => Rights::FS_WRITE,
            other => return error_reply(format!("ag_fs: unknown command {other:?}")),
        };
        if let Err(e) = env.rights.require(need, &env.requester) {
            return error_reply(e);
        }
        let Some(path) = arg(request, 0).map(str::to_owned) else {
            return error_reply(format!("{cmd}: missing path argument"));
        };

        let mut files = self.files.lock();
        match cmd.as_str() {
            "write" => {
                let Ok(data) = request.element(DATA_FOLDER, 0) else {
                    return error_reply("write: missing DATA folder");
                };
                files.insert(path, data.data().to_vec());
                ok_reply()
            }
            "read" => match files.get(&path) {
                Some(data) => {
                    let mut reply = ok_reply();
                    reply.set_single(DATA_FOLDER, data.clone());
                    reply
                }
                None => error_reply(format!("read: no such file {path:?}")),
            },
            "stat" => match files.get(&path) {
                Some(data) => {
                    let mut reply = ok_reply();
                    reply.set_single("SIZE", data.len() as i64);
                    reply
                }
                None => error_reply(format!("stat: no such file {path:?}")),
            },
            "list" => {
                let mut reply = ok_reply();
                for name in files.keys().filter(|k| k.starts_with(&path)) {
                    reply.append("PATHS", name.as_str());
                }
                reply
            }
            "delete" => {
                if files.remove(&path).is_some() {
                    ok_reply()
                } else {
                    error_reply(format!("delete: no such file {path:?}"))
                }
            }
            _ => unreachable!("command validated above"),
        }
    }
}
