//! The TACOMA **briefcase**: the unit of agent state and inter-agent exchange.
//!
//! A briefcase is "a consistent snapshot of the executing agent (code,
//! arguments, results) as it is transported between hosts" (TAX 2.0, §3.1).
//! Structurally it is an associative array of named [`Folder`]s, each holding
//! an ordered list of [`Element`]s, where an element is an *uninterpreted
//! sequence of bits* — the most basic data type in TAX.
//!
//! Briefcases are the **only** thing agents exchange: sending a briefcase and
//! receiving a briefcase are the two actions observable to the system, which
//! is what makes the wrapper mechanism of the paper's §4 possible.
//!
//! # Example
//!
//! ```
//! use tacoma_briefcase::{Briefcase, folders};
//!
//! # fn main() -> Result<(), tacoma_briefcase::BriefcaseError> {
//! let mut bc = Briefcase::new();
//! bc.append(folders::HOSTS, "tacoma://alpha/vm_script");
//! bc.append(folders::HOSTS, "tacoma://beta/vm_script");
//!
//! // The Figure-4 idiom: pop the next hop off the HOSTS folder.
//! let next = bc.folder_mut(folders::HOSTS).unwrap().remove_front().unwrap();
//! assert_eq!(next.as_str()?, "tacoma://alpha/vm_script");
//!
//! // Wire roundtrip.
//! let wire = tacoma_briefcase::Bytes::from(bc.encode());
//! let back = Briefcase::decode_bytes(&wire)?;
//! assert_eq!(bc, back);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod briefcase;
mod codec;
mod element;
mod error;
mod folder;
pub mod folders;

pub use crate::briefcase::{Briefcase, FolderNames, Folders, FoldersMut, IntoFolders};
// Re-exported so zero-copy consumers (`Briefcase::decode_bytes`,
// `Briefcase::wire_bytes`, `Element::bytes`) can name the buffer type
// without a separate `bytes` dependency.
pub use crate::codec::{
    decode_briefcase_bytes, encode_briefcase, encode_briefcase_into, CODEC_VERSION, MAGIC,
};
pub use crate::element::Element;
pub use crate::error::BriefcaseError;
pub use crate::folder::Folder;
pub use bytes::Bytes;
