//! The Southampton server.
//!
//! §III: "The new architecture does not allow direct communication between
//! the two stations. In order to overcome this limitation the
//! communications are managed by a server in Southampton, this also allows
//! easy manual overriding of the power states if required."
//!
//! [`SouthamptonServer`] implements the
//! [`Uplink`](glacsweb_station::Uplink) trait the stations talk to. It
//! keeps:
//!
//! * per-station **power states** and the override logic — the override
//!   returned to a station is the *minimum* of both stations' last
//!   reported states, further capped by any manual override
//!   ([`StateSync`]);
//! * staged **special commands** and **code updates**, plus the checksum
//!   reports that come back by HTTP GET ([`CommandDesk`]);
//! * the **data warehouse** — every upload, the dGPS pairing that turns
//!   raw readings into differential fixes, and the probe series behind
//!   Fig 6 ([`Warehouse`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod commands;
mod server;
mod state_sync;
mod warehouse;

pub use commands::CommandDesk;
pub use server::SouthamptonServer;
pub use state_sync::StateSync;
pub use warehouse::{DgpsFix, GpsRecord, Pairing, Warehouse};
