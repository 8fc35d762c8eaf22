//! Host crate for the repository-root `tests/` directory: integration
//! tests that span the whole workspace (machine end-to-end runs, the
//! combining ablation, serialization-principle property tests and
//! workload smoke tests).
//!
//! The crate itself intentionally exports nothing; see `../../tests/`.
