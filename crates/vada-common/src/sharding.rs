//! The sharding knob, reduced to its one level.
//!
//! Every scan runs monolithically. [`Sharding`] keeps a single value so
//! that code written against `Wrangler::set_sharding` and
//! `Transducer::set_sharding` still compiles; both setters do nothing.

/// The only sharding level: one monolithic store and scan.
#[derive(Debug, Clone, Copy)]
pub enum Sharding {
    /// One monolithic store/scan.
    Off,
}
