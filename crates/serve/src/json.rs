//! The protocol's JSON reader: a re-export of the workspace's one
//! reader, [`ultra_obs::json`], under the path the benchmark imports.

pub use ultra_obs::json::{parse, parse_object, Json, ParseError};
