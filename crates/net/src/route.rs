//! Omega-network topology: perfect-shuffle wiring, destination-tag routing,
//! and the origin/destination amalgam address (§3.1.1).
//!
//! The network connects `N = k^D` PEs to `N` MMs through `D` stages of
//! `k×k` switches (`N/k` switches per stage). Identifiers are written base
//! `k` as `x_D … x_1` (digit 1 least significant). A request from
//! `PE(p_D…p_1)` to `MM(m_D…m_1)` leaves the stage-`s` switch (stages
//! numbered `0..D` from the PE side) on output port `m_{D-s}`; the reply
//! leaves the same stage on ToPE port `p_{D-s}`.
//!
//! The switches the paper describes are 2×2 and 4×4, and `k` must be a
//! power of two: a base-`k` digit is then `log2 k` bits, and every routing
//! decision is a shift and a mask. The digit stage `s` consumes sits
//! `log2 k · (D − 1 − s)` bits up. [`Topology`] is the only routing model;
//! it holds three integers and tabulates nothing.
//!
//! Only one `D`-digit address — the *amalgam* — need travel with a message:
//! it enters holding the destination, and each stage replaces the digit it
//! consumed with the arrival-port digit, so the origin address materializes
//! exactly when the destination digits run out. [`Topology::step_amalgam`]
//! implements that register update, and the switches route by it
//! ([`Topology::amalgam_out_port`]) from the slab's link records, where
//! it lives; debug builds assert at the fabric edge that it has become the
//! origin, and `crates/net/tests/fabric_storage.rs` checks it against the
//! digit route of the full `src`/`addr` fields at every stage.

use ultra_sim::{MmId, PeId};

/// Where a forward (PE→MM) message goes after leaving a switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForwardHop {
    /// Into the next stage: `(switch index, arrival port)`.
    ToSwitch(usize, usize),
    /// Off the last stage into a memory module.
    ToMm(MmId),
}

/// Where a reverse (MM→PE) message goes after leaving a switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReverseHop {
    /// Into the previous stage: `(switch index, arrival port)`.
    ToSwitch(usize, usize),
    /// Off stage 0 into a processing element.
    ToPe(PeId),
}

/// The static wiring of an `N`-PE Omega network built from `k×k` switches,
/// `k` a power of two.
///
/// # Example
///
/// ```
/// use ultra_net::route::Topology;
///
/// let topo = Topology::new(64, 4);
/// assert_eq!(topo.stages(), 3);
/// assert_eq!(topo.switches_per_stage(), 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    n: usize,
    /// `log2 k`: the width of one base-`k` digit in bits.
    k_bits: u32,
    stages: u32,
}

impl Topology {
    /// Creates the wiring for `n` PEs with `k×k` switches.
    ///
    /// # Panics
    ///
    /// Panics unless `k >= 2` is a power of two and `n` a power of `k`
    /// above 1 (at least one stage).
    #[must_use]
    pub fn new(n: usize, k: usize) -> Self {
        assert!(
            k >= 2 && k.is_power_of_two(),
            "switch arity k = {k} is not a power of two above 1"
        );
        let k_bits = k.trailing_zeros();
        assert!(
            n.is_power_of_two() && n.trailing_zeros() % k_bits == 0,
            "n = {n} is not a power of k = {k}"
        );
        let stages = n.trailing_zeros() / k_bits;
        assert!(stages >= 1, "need at least one stage (n > 1)");
        Self { n, k_bits, stages }
    }

    /// Switch arity.
    #[must_use]
    #[inline]
    pub fn k(&self) -> usize {
        1 << self.k_bits
    }

    /// Number of switch stages, `D = log_k N`.
    #[must_use]
    #[inline]
    pub fn stages(&self) -> usize {
        self.stages as usize
    }

    /// Switches in each stage, `N / k`.
    #[must_use]
    #[inline]
    pub fn switches_per_stage(&self) -> usize {
        self.n >> self.k_bits
    }

    /// Bit offset of the digit stage `stage` consumes, `m_{D-stage}`.
    #[inline]
    fn shift(&self, stage: usize) -> u32 {
        debug_assert!(stage < self.stages());
        self.k_bits * (self.stages - 1 - stage as u32)
    }

    /// The base-`k` digit of `x` at bit offset `shift`.
    #[inline]
    fn digit_at(&self, x: usize, shift: u32) -> usize {
        (x >> shift) & (self.k() - 1)
    }

    /// `(line / k, line % k)`: the switch and port a line lands on.
    #[inline]
    fn split(&self, line: usize) -> (usize, usize) {
        (line >> self.k_bits, line & (self.k() - 1))
    }

    /// The perfect `k`-shuffle of line `line`: rotate the base-`k`
    /// representation left by one digit.
    #[must_use]
    #[inline]
    pub fn shuffle(&self, line: usize) -> usize {
        debug_assert!(line < self.n);
        ((line << self.k_bits) & (self.n - 1)) | (line >> self.shift(0))
    }

    /// Inverse of [`Topology::shuffle`]: rotate right by one digit.
    #[must_use]
    #[inline]
    pub fn unshuffle(&self, line: usize) -> usize {
        debug_assert!(line < self.n);
        (line >> self.k_bits) | ((line & (self.k() - 1)) << self.shift(0))
    }

    /// Switch and arrival port at which `pe`'s requests enter stage 0.
    #[must_use]
    #[inline]
    pub fn pe_entry(&self, pe: PeId) -> (usize, usize) {
        self.split(self.shuffle(pe.0))
    }

    /// Output port a request for `mm` takes at stage `stage`: digit
    /// `m_{D-stage}` of the destination.
    #[must_use]
    #[inline]
    pub fn forward_out_port(&self, mm: MmId, stage: usize) -> usize {
        self.digit_at(mm.0, self.shift(stage))
    }

    /// Where a message leaving `(stage, switch, out_port)` lands.
    #[must_use]
    #[inline]
    pub fn forward_next(&self, stage: usize, switch: usize, out_port: usize) -> ForwardHop {
        let line = (switch << self.k_bits) | out_port;
        if stage + 1 == self.stages() {
            ForwardHop::ToMm(MmId(line))
        } else {
            let (switch, port) = self.split(self.shuffle(line));
            ForwardHop::ToSwitch(switch, port)
        }
    }

    /// Switch and arrival port at which a reply from `mm` enters the last
    /// stage (it re-enters on the port the request departed from).
    #[must_use]
    #[inline]
    pub fn reverse_entry(&self, mm: MmId) -> (usize, usize) {
        self.split(mm.0)
    }

    /// ToPE output port a reply for `pe` takes at stage `stage`: digit
    /// `p_{D-stage}` — exactly the port the request arrived on (§3.1.1).
    #[must_use]
    #[inline]
    pub fn reverse_out_port(&self, pe: PeId, stage: usize) -> usize {
        self.digit_at(pe.0, self.shift(stage))
    }

    /// Where a reply leaving `(stage, switch, to_pe_port)` lands.
    #[must_use]
    #[inline]
    pub fn reverse_next(&self, stage: usize, switch: usize, out_port: usize) -> ReverseHop {
        let line = self.unshuffle((switch << self.k_bits) | out_port);
        if stage == 0 {
            ReverseHop::ToPe(PeId(line))
        } else {
            let (switch, port) = self.split(line);
            ReverseHop::ToSwitch(switch, port)
        }
    }

    /// The reverse-trip amalgam of a reply destined for `pe` (about a word
    /// in `mm`) as it *enters* stage `stage` — i.e. after the stages closer
    /// to the MMs have already replaced their PE digits with MM digits.
    /// Those are the low `D - stage - 1` digits, so the amalgam is
    /// `pe - pe mod w + mm mod w` with `w = k^(D-stage-1)`.
    ///
    /// Used when a switch manufactures a decombined reply (§3.3): the spawn
    /// must carry the amalgam the absorbed request's reply would have had at
    /// that point of the return trip.
    #[must_use]
    #[inline]
    pub fn reverse_amalgam_at(&self, pe: PeId, mm: MmId, stage: usize) -> usize {
        let low = (1 << self.shift(stage)) - 1;
        (pe.0 & !low) | (mm.0 & low)
    }

    /// The output port a message carrying `amalgam` takes at `stage` on
    /// either trip: the amalgam digit that stage consumes. Equal to
    /// [`Topology::forward_out_port`] of a request's MM (and
    /// [`Topology::reverse_out_port`] of a reply's PE) while the message
    /// is at that stage, read from the one word the hop updates anyway.
    #[must_use]
    #[inline]
    pub fn amalgam_out_port(&self, amalgam: usize, stage: usize) -> usize {
        self.digit_at(amalgam, self.shift(stage))
    }

    /// The §3.1.1 amalgam register update performed by a stage-`stage`
    /// switch on either trip: read the outgoing-port digit, then overwrite
    /// it with the arrival-port digit. Returns
    /// `(out_port, updated_amalgam)`.
    #[must_use]
    #[inline]
    pub fn step_amalgam(&self, amalgam: usize, stage: usize, in_port: usize) -> (usize, usize) {
        debug_assert!(in_port < self.k());
        let shift = self.shift(stage);
        let out_port = self.digit_at(amalgam, shift);
        let updated = (amalgam & !((self.k() - 1) << shift)) | (in_port << shift);
        (out_port, updated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_rotates_digits_left() {
        let t = Topology::new(8, 2);
        // 0b011 -> 0b110, 0b100 -> 0b001.
        assert_eq!(t.shuffle(0b011), 0b110);
        assert_eq!(t.shuffle(0b100), 0b001);
    }

    #[test]
    fn unshuffle_inverts_shuffle() {
        for (n, k) in [(8, 2), (64, 4), (64, 8), (16, 16)] {
            let t = Topology::new(n, k);
            for line in 0..n {
                assert_eq!(t.unshuffle(t.shuffle(line)), line);
                assert_eq!(t.shuffle(t.unshuffle(line)), line);
            }
        }
    }

    /// Walks the forward path switch-by-switch the way the simulator does,
    /// updating the amalgam, and checks arrival at the right MM with the
    /// amalgam transmuted into the source PE number.
    fn walk_forward(t: &Topology, pe: PeId, mm: MmId) {
        let (mut sw, mut in_port) = t.pe_entry(pe);
        let mut amalgam = mm.0;
        for stage in 0..t.stages() {
            let out = t.forward_out_port(mm, stage);
            let (am_out, updated) = t.step_amalgam(amalgam, stage, in_port);
            assert_eq!(am_out, out, "amalgam routing must agree with digit routing");
            amalgam = updated;
            match t.forward_next(stage, sw, out) {
                ForwardHop::ToSwitch(s, p) => {
                    sw = s;
                    in_port = p;
                }
                ForwardHop::ToMm(m) => {
                    assert_eq!(stage + 1, t.stages());
                    assert_eq!(m, mm, "request must arrive at its destination MM");
                }
            }
        }
        assert_eq!(amalgam, pe.0, "amalgam must end as the origin PE number");
    }

    /// Walks the reverse path and checks arrival at the right PE with the
    /// amalgam transmuted back into the MM number.
    fn walk_reverse(t: &Topology, pe: PeId, mm: MmId) {
        let (mut sw, mut in_port) = t.reverse_entry(mm);
        let mut amalgam = pe.0;
        for stage in (0..t.stages()).rev() {
            assert_eq!(
                amalgam,
                t.reverse_amalgam_at(pe, mm, stage),
                "closed form must match the walked reverse amalgam"
            );
            let out = t.reverse_out_port(pe, stage);
            let (am_out, updated) = t.step_amalgam(amalgam, stage, in_port);
            assert_eq!(am_out, out);
            amalgam = updated;
            match t.reverse_next(stage, sw, out) {
                ReverseHop::ToSwitch(s, p) => {
                    assert!(stage > 0);
                    sw = s;
                    in_port = p;
                }
                ReverseHop::ToPe(p) => {
                    assert_eq!(stage, 0);
                    assert_eq!(p, pe, "reply must arrive at the originating PE");
                }
            }
        }
        assert_eq!(amalgam, mm.0, "reverse amalgam must end as the MM number");
    }

    #[test]
    fn every_pair_routes_correctly_k2() {
        let t = Topology::new(64, 2);
        for pe in 0..64 {
            for mm in 0..64 {
                walk_forward(&t, PeId(pe), MmId(mm));
                walk_reverse(&t, PeId(pe), MmId(mm));
            }
        }
    }

    #[test]
    fn every_pair_routes_correctly_k4() {
        let t = Topology::new(64, 4);
        for pe in 0..64 {
            for mm in 0..64 {
                walk_forward(&t, PeId(pe), MmId(mm));
                walk_reverse(&t, PeId(pe), MmId(mm));
            }
        }
    }

    #[test]
    fn every_pair_routes_correctly_k8() {
        let t = Topology::new(64, 8);
        for pe in 0..64 {
            for mm in 0..64 {
                walk_forward(&t, PeId(pe), MmId(mm));
                walk_reverse(&t, PeId(pe), MmId(mm));
            }
        }
    }

    #[test]
    fn single_stage_network_is_a_crossbar() {
        let t = Topology::new(4, 4);
        assert_eq!(t.stages(), 1);
        for pe in 0..4 {
            for mm in 0..4 {
                walk_forward(&t, PeId(pe), MmId(mm));
                walk_reverse(&t, PeId(pe), MmId(mm));
            }
        }
    }

    #[test]
    fn paper_figure2_example_dimensions() {
        // Figure 2 of the paper: N = 8, 2x2 switches, 3 stages of 4.
        let t = Topology::new(8, 2);
        assert_eq!(t.stages(), 3);
        assert_eq!(t.switches_per_stage(), 4);
    }

    #[test]
    fn paths_to_same_mm_converge() {
        // All requests for one MM must exit the last stage at the same
        // switch/port — the tree property combining relies on.
        let t = Topology::new(16, 2);
        let mm = MmId(11);
        let mut exits = std::collections::HashSet::new();
        for pe in 0..16 {
            let (mut sw, mut _ip) = t.pe_entry(PeId(pe));
            for stage in 0..t.stages() {
                let out = t.forward_out_port(mm, stage);
                match t.forward_next(stage, sw, out) {
                    ForwardHop::ToSwitch(s, p) => {
                        sw = s;
                        _ip = p;
                    }
                    ForwardHop::ToMm(m) => {
                        exits.insert((sw, out));
                        assert_eq!(m, mm);
                    }
                }
            }
        }
        assert_eq!(exits.len(), 1, "all paths to an MM share the final link");
    }

    #[test]
    #[should_panic(expected = "not a power")]
    fn rejects_non_power_sizes() {
        let _ = Topology::new(12, 2);
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn rejects_arities_that_are_not_powers_of_two() {
        let _ = Topology::new(27, 3);
    }

    /// The geometries the digit-definition checks run on.
    const GEOMETRIES: [(usize, usize); 6] = [(4, 4), (8, 2), (16, 16), (64, 2), (64, 4), (64, 8)];

    /// The base-`k` digit arithmetic of §3.1.1, written out with `/`, `%`
    /// and `pow`: the reference the shift-and-mask methods are held to.
    struct Digits {
        n: usize,
        k: usize,
        stages: usize,
    }

    impl Digits {
        fn new(t: &Topology) -> Self {
            let (n, k, stages) = (t.k().pow(t.stages() as u32), t.k(), t.stages());
            assert_eq!(t.switches_per_stage(), n / k);
            Digits { n, k, stages }
        }

        /// The weight `k^(D-s-1)` of the digit stage `s` consumes.
        fn weight(&self, s: usize) -> usize {
            self.k.pow((self.stages - s - 1) as u32)
        }

        fn digit(&self, x: usize, s: usize) -> usize {
            x / self.weight(s) % self.k
        }

        /// The digit stage `s` consumes and `x` with it replaced by `in_port`.
        fn step(&self, x: usize, s: usize, in_port: usize) -> (usize, usize) {
            let w = self.weight(s);
            (self.digit(x, s), x - self.digit(x, s) * w + in_port * w)
        }

        fn shuffle(&self, line: usize) -> usize {
            line * self.k % self.n + line * self.k / self.n
        }

        fn unshuffle(&self, line: usize) -> usize {
            line / self.k + line % self.k * (self.n / self.k)
        }

        fn split(&self, line: usize) -> (usize, usize) {
            (line / self.k, line % self.k)
        }
    }

    /// Every shift-and-mask routing method of `Topology` agrees, at every
    /// line, stage and input port, with the routing answers the base-`k`
    /// digit definition gives.
    #[test]
    fn route_tables_agree_with_topology_everywhere() {
        for (n, k) in GEOMETRIES {
            let t = Topology::new(n, k);
            let r = Digits::new(&t);
            assert_eq!((r.n, t.k()), (n, k));
            for line in 0..n {
                assert_eq!(t.shuffle(line), r.shuffle(line));
                assert_eq!(t.unshuffle(line), r.unshuffle(line));
                assert_eq!(t.pe_entry(PeId(line)), r.split(r.shuffle(line)));
                assert_eq!(t.reverse_entry(MmId(line)), r.split(line));
                let (sw, port) = r.split(line);
                for s in 0..r.stages {
                    assert_eq!(t.forward_out_port(MmId(line), s), r.digit(line, s));
                    assert_eq!(t.reverse_out_port(PeId(line), s), r.digit(line, s));
                    assert_eq!(t.amalgam_out_port(line, s), r.digit(line, s));
                    for in_port in 0..k {
                        assert_eq!(t.step_amalgam(line, s, in_port), r.step(line, s, in_port));
                    }
                    let forward = match r.split(r.shuffle(line)) {
                        _ if s + 1 == r.stages => ForwardHop::ToMm(MmId(line)),
                        (sw, port) => ForwardHop::ToSwitch(sw, port),
                    };
                    assert_eq!(t.forward_next(s, sw, port), forward);
                    let reverse = match r.split(r.unshuffle(line)) {
                        _ if s == 0 => ReverseHop::ToPe(PeId(r.unshuffle(line))),
                        (sw, port) => ReverseHop::ToSwitch(sw, port),
                    };
                    assert_eq!(t.reverse_next(s, sw, port), reverse);
                }
            }
        }
    }

    /// The closed-form reverse amalgam equals the one walked back from the
    /// MM side with the base-`k` digit definition, for every (PE, MM) pair
    /// at every stage.
    #[test]
    fn route_tables_amalgam_matches_walked_form() {
        for (n, k) in GEOMETRIES {
            let t = Topology::new(n, k);
            let r = Digits::new(&t);
            for (pe, mm) in (0..n).flat_map(|pe| (0..n).map(move |mm| (pe, mm))) {
                // Each stage closer to the MMs has replaced its PE digit
                // with the port the request left it by.
                let mut walked = pe;
                for s in (0..r.stages).rev() {
                    let closed = t.reverse_amalgam_at(PeId(pe), MmId(mm), s);
                    assert_eq!(closed, walked, "n={n} k={k} pe={pe} mm={mm} stage={s}");
                    walked = r.step(walked, s, r.digit(mm, s)).1;
                }
            }
        }
    }

    /// Every (PE, MM) pair of the §4.2 fabric — 4096 PEs, six stages of
    /// 4×4 switches — routes there and back with its amalgam transmuted
    /// at each end. Run in release:
    /// `cargo test --release -p ultra-net --lib section42 -- --ignored`.
    #[test]
    #[ignore = "walks 2^24 routes: run in release"]
    fn every_pair_of_the_section42_fabric_routes_correctly() {
        let cfg = crate::config::NetConfig::paper_section42();
        let t = Topology::new(cfg.pes, cfg.k);
        assert_eq!((t.k(), t.stages()), (4, 6));
        for pe in 0..cfg.pes {
            for mm in 0..cfg.pes {
                walk_forward(&t, PeId(pe), MmId(mm));
                walk_reverse(&t, PeId(pe), MmId(mm));
            }
        }
    }
}
