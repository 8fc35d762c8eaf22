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
//! Only one `D`-digit address — the *amalgam* — need travel with a message:
//! it enters holding the destination, and each stage replaces the digit it
//! consumed with the arrival-port digit, so the origin address materializes
//! exactly when the destination digits run out. [`Topology::step_amalgam`]
//! implements that register update, and the switches route by it
//! ([`RouteTables::amalgam_out_port`]) from the slab's link records, where
//! it lives; debug builds assert at the fabric edge that it has become the
//! origin, and `crates/net/tests/fabric_storage.rs` checks it against the
//! digit route of the full `src`/`addr` fields at every stage.

use ultra_sim::heap::vec_bytes;
use ultra_sim::ids::digits;
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

/// The static wiring of an `N`-PE Omega network built from `k×k` switches.
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
    k: usize,
    stages: u32,
}

impl Topology {
    /// Creates the wiring for `n` PEs with `k×k` switches.
    ///
    /// # Panics
    ///
    /// Panics unless `n` is a positive power of `k` and `k >= 2`.
    #[must_use]
    pub fn new(n: usize, k: usize) -> Self {
        let stages = digits::count(n, k);
        assert!(stages >= 1, "need at least one stage (n > 1)");
        Self { n, k, stages }
    }

    /// Number of PEs (= number of MMs).
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Switch arity.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of switch stages, `D = log_k N`.
    #[must_use]
    pub fn stages(&self) -> usize {
        self.stages as usize
    }

    /// Switches in each stage, `N / k`.
    #[must_use]
    pub fn switches_per_stage(&self) -> usize {
        self.n / self.k
    }

    /// The perfect `k`-shuffle of line `line`: rotate the base-`k`
    /// representation left by one digit.
    #[must_use]
    pub fn shuffle(&self, line: usize) -> usize {
        debug_assert!(line < self.n);
        (line * self.k) % self.n + (line * self.k) / self.n
    }

    /// Inverse of [`Topology::shuffle`]: rotate right by one digit.
    #[must_use]
    pub fn unshuffle(&self, line: usize) -> usize {
        debug_assert!(line < self.n);
        line / self.k + (line % self.k) * (self.n / self.k)
    }

    /// Switch and arrival port at which `pe`'s requests enter stage 0.
    #[must_use]
    pub fn pe_entry(&self, pe: PeId) -> (usize, usize) {
        let line = self.shuffle(pe.0);
        (line / self.k, line % self.k)
    }

    /// Output port a request for `mm` takes at stage `stage`: digit
    /// `m_{D-stage}` of the destination.
    #[must_use]
    pub fn forward_out_port(&self, mm: MmId, stage: usize) -> usize {
        digits::digit(mm.0, self.k, self.stages - stage as u32)
    }

    /// Where a message leaving `(stage, switch, out_port)` lands.
    #[must_use]
    pub fn forward_next(&self, stage: usize, switch: usize, out_port: usize) -> ForwardHop {
        let line = switch * self.k + out_port;
        if stage + 1 == self.stages() {
            ForwardHop::ToMm(MmId(line))
        } else {
            let next = self.shuffle(line);
            ForwardHop::ToSwitch(next / self.k, next % self.k)
        }
    }

    /// Switch and arrival port at which a reply from `mm` enters the last
    /// stage (it re-enters on the port the request departed from).
    #[must_use]
    pub fn reverse_entry(&self, mm: MmId) -> (usize, usize) {
        (mm.0 / self.k, mm.0 % self.k)
    }

    /// ToPE output port a reply for `pe` takes at stage `stage`: digit
    /// `p_{D-stage}` — exactly the port the request arrived on (§3.1.1).
    #[must_use]
    pub fn reverse_out_port(&self, pe: PeId, stage: usize) -> usize {
        digits::digit(pe.0, self.k, self.stages - stage as u32)
    }

    /// Where a reply leaving `(stage, switch, to_pe_port)` lands.
    #[must_use]
    pub fn reverse_next(&self, stage: usize, switch: usize, out_port: usize) -> ReverseHop {
        let line = self.unshuffle(switch * self.k + out_port);
        if stage == 0 {
            ReverseHop::ToPe(PeId(line))
        } else {
            ReverseHop::ToSwitch(line / self.k, line % self.k)
        }
    }

    /// The reverse-trip amalgam of a reply destined for `pe` (about a word
    /// in `mm`) as it *enters* stage `stage` — i.e. after the stages closer
    /// to the MMs have already replaced their PE digits with MM digits.
    ///
    /// Used when a switch manufactures a decombined reply (§3.3): the spawn
    /// must carry the amalgam the absorbed request's reply would have had at
    /// that point of the return trip.
    #[must_use]
    pub fn reverse_amalgam_at(&self, pe: PeId, mm: MmId, stage: usize) -> usize {
        let mut amalgam = pe.0;
        for s in (stage + 1..self.stages()).rev() {
            // On the return trip a reply enters each switch on the port the
            // request departed from: the forward output-port digit.
            let in_port = self.forward_out_port(mm, s);
            let (_, updated) = self.step_amalgam(amalgam, s, in_port);
            amalgam = updated;
        }
        amalgam
    }

    /// Renders the wiring as text in the spirit of the paper's Figure 2:
    /// one line per switch, listing what feeds each input port and where
    /// each output port leads.
    ///
    /// ```
    /// use ultra_net::route::Topology;
    ///
    /// let diagram = Topology::new(8, 2).render();
    /// assert!(diagram.contains("stage 0"));
    /// assert!(diagram.contains("MM7"));
    /// ```
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Omega network: {} PEs, {}x{} switches, {} stages",
            self.n,
            self.k,
            self.k,
            self.stages()
        );
        for stage in 0..self.stages() {
            let _ = writeln!(out, "stage {stage}:");
            for sw in 0..self.switches_per_stage() {
                // Inputs: who feeds (sw, port)?
                let mut ins: Vec<String> = vec![String::from("?"); self.k];
                if stage == 0 {
                    for pe in 0..self.n {
                        let (s, p) = self.pe_entry(PeId(pe));
                        if s == sw {
                            ins[p] = format!("PE{pe}");
                        }
                    }
                } else {
                    for psw in 0..self.switches_per_stage() {
                        for pport in 0..self.k {
                            if let ForwardHop::ToSwitch(s, p) =
                                self.forward_next(stage - 1, psw, pport)
                            {
                                if s == sw {
                                    ins[p] = format!("S{}.{psw}:{pport}", stage - 1);
                                }
                            }
                        }
                    }
                }
                // Outputs: where does (sw, port) lead?
                let outs: Vec<String> = (0..self.k)
                    .map(|port| match self.forward_next(stage, sw, port) {
                        ForwardHop::ToSwitch(s, p) => format!("S{}.{s}:{p}", stage + 1),
                        ForwardHop::ToMm(mm) => format!("MM{}", mm.0),
                    })
                    .collect();
                let _ = writeln!(
                    out,
                    "  S{stage}.{sw}  in[{}]  out[{}]",
                    ins.join(", "),
                    outs.join(", ")
                );
            }
        }
        out
    }

    /// The §3.1.1 amalgam register update performed by a stage-`stage`
    /// switch on either trip: read the outgoing-port digit, then overwrite
    /// it with the arrival-port digit. Returns
    /// `(out_port, updated_amalgam)`.
    #[must_use]
    pub fn step_amalgam(&self, amalgam: usize, stage: usize, in_port: usize) -> (usize, usize) {
        let j = self.stages - stage as u32; // 1-based digit index
        let weight = self.k.pow(j - 1);
        let out_port = (amalgam / weight) % self.k;
        let updated = amalgam - out_port * weight + in_port * weight;
        (out_port, updated)
    }
}

/// A [`Topology`] with every hot-path routing decision precomputed.
///
/// The per-cycle sweeps resolve output ports, shuffle wirings and digit
/// weights for every message hop; computed on the fly those are divisions,
/// modulos and `pow` calls. This wrapper tabulates them once at
/// construction — `O(N · D)` small integers — so the hot path is pure
/// table lookups, and derives the decombining amalgam in closed form
/// instead of walking the return path stage by stage.
///
/// Derefs to [`Topology`], so the rarely-used geometry queries
/// (`render`, …) remain available; the methods defined here shadow their
/// `Topology` equivalents with table-backed versions that return
/// identical values (asserted exhaustively in the route tests).
#[derive(Debug, Clone)]
pub struct RouteTables {
    topo: Topology,
    /// `fwd_port[mm * D + s]` = output port a request for `mm` takes at
    /// stage `s` (digit `m_{D-s}`).
    fwd_port: Vec<u8>,
    /// `rev_port[pe * D + s]` = ToPE output port a reply for `pe` takes at
    /// stage `s`.
    rev_port: Vec<u8>,
    /// `shuffle[line]` = perfect `k`-shuffle of `line`.
    shuffle: Vec<u32>,
    /// `unshuffle[line]` = inverse shuffle of `line`.
    unshuffle: Vec<u32>,
    /// `weight[s]` = `k^(D-s-1)`, the base-`k` digit weight consumed at
    /// stage `s`.
    weight: Vec<usize>,
    /// `log2 k` when `k` is a power of two (every configuration the paper
    /// considers): digit arithmetic is then shifts and masks; other
    /// arities divide.
    k_log2: Option<u32>,
}

impl RouteTables {
    /// Tabulates `topo`.
    ///
    /// # Panics
    ///
    /// Panics if the switch arity exceeds 256 (ports are stored as bytes).
    #[must_use]
    pub fn new(topo: Topology) -> Self {
        assert!(topo.k() <= 256, "port table stores ports as u8");
        let n = topo.n();
        let d = topo.stages();
        let mut fwd_port = Vec::with_capacity(n * d);
        let mut rev_port = Vec::with_capacity(n * d);
        for line in 0..n {
            for s in 0..d {
                fwd_port.push(topo.forward_out_port(MmId(line), s) as u8);
                rev_port.push(topo.reverse_out_port(PeId(line), s) as u8);
            }
        }
        Self {
            fwd_port,
            rev_port,
            shuffle: (0..n).map(|l| topo.shuffle(l) as u32).collect(),
            unshuffle: (0..n).map(|l| topo.unshuffle(l) as u32).collect(),
            weight: (0..d).map(|s| topo.k().pow((d - s - 1) as u32)).collect(),
            k_log2: topo
                .k()
                .is_power_of_two()
                .then(|| topo.k().trailing_zeros()),
            topo,
        }
    }

    /// Heap bytes the tables own.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        vec_bytes(&self.fwd_port)
            + vec_bytes(&self.rev_port)
            + vec_bytes(&self.shuffle)
            + vec_bytes(&self.unshuffle)
            + vec_bytes(&self.weight)
    }

    /// The wrapped wiring.
    #[must_use]
    pub fn topo(&self) -> &Topology {
        &self.topo
    }

    /// Table-backed [`Topology::shuffle`].
    #[must_use]
    pub fn shuffle(&self, line: usize) -> usize {
        self.shuffle[line] as usize
    }

    /// Table-backed [`Topology::unshuffle`].
    #[must_use]
    pub fn unshuffle(&self, line: usize) -> usize {
        self.unshuffle[line] as usize
    }

    /// `(line / k, line % k)`: the switch and port a line lands on.
    #[inline]
    fn split(&self, line: usize) -> (usize, usize) {
        match self.k_log2 {
            Some(bits) => (line >> bits, line & (self.topo.k - 1)),
            None => (line / self.topo.k, line % self.topo.k),
        }
    }

    /// Table-backed [`Topology::pe_entry`].
    #[must_use]
    pub fn pe_entry(&self, pe: PeId) -> (usize, usize) {
        self.split(self.shuffle[pe.0] as usize)
    }

    /// Table-backed [`Topology::forward_out_port`].
    #[must_use]
    pub fn forward_out_port(&self, mm: MmId, stage: usize) -> usize {
        self.fwd_port[mm.0 * self.weight.len() + stage] as usize
    }

    /// Table-backed [`Topology::forward_next`].
    #[must_use]
    pub fn forward_next(&self, stage: usize, switch: usize, out_port: usize) -> ForwardHop {
        let line = switch * self.topo.k + out_port;
        if stage + 1 == self.weight.len() {
            ForwardHop::ToMm(MmId(line))
        } else {
            let (switch, port) = self.split(self.shuffle[line] as usize);
            ForwardHop::ToSwitch(switch, port)
        }
    }

    /// Table-backed [`Topology::reverse_entry`].
    #[must_use]
    pub fn reverse_entry(&self, mm: MmId) -> (usize, usize) {
        self.split(mm.0)
    }

    /// Table-backed [`Topology::reverse_out_port`].
    #[must_use]
    pub fn reverse_out_port(&self, pe: PeId, stage: usize) -> usize {
        self.rev_port[pe.0 * self.weight.len() + stage] as usize
    }

    /// Table-backed [`Topology::reverse_next`].
    #[must_use]
    pub fn reverse_next(&self, stage: usize, switch: usize, out_port: usize) -> ReverseHop {
        let line = self.unshuffle[switch * self.topo.k + out_port] as usize;
        if stage == 0 {
            ReverseHop::ToPe(PeId(line))
        } else {
            let (switch, port) = self.split(line);
            ReverseHop::ToSwitch(switch, port)
        }
    }

    /// The output port a message carrying `amalgam` takes at `stage` on
    /// either trip: the amalgam digit that stage consumes. Equal to
    /// [`RouteTables::forward_out_port`] of a request's MM (and
    /// [`RouteTables::reverse_out_port`] of a reply's PE) while the message
    /// is at that stage, read from the one word the hop updates anyway.
    #[must_use]
    #[inline]
    pub fn amalgam_out_port(&self, amalgam: usize, stage: usize) -> usize {
        let weight = self.weight[stage];
        match self.k_log2 {
            Some(_) => (amalgam >> weight.trailing_zeros()) & (self.topo.k - 1),
            None => (amalgam / weight) % self.topo.k,
        }
    }

    /// Table-backed [`Topology::step_amalgam`]: the digit weight comes
    /// from the stage table instead of a `pow` call.
    #[must_use]
    pub fn step_amalgam(&self, amalgam: usize, stage: usize, in_port: usize) -> (usize, usize) {
        let weight = self.weight[stage];
        let out_port = self.amalgam_out_port(amalgam, stage);
        let updated = amalgam - out_port * weight + in_port * weight;
        (out_port, updated)
    }

    /// Closed-form [`Topology::reverse_amalgam_at`]: the stages closer to
    /// the MMs have replaced the low `D - stage - 1` digits of the PE
    /// number with the MM's digits, so the amalgam is
    /// `pe - pe % w + mm % w` with `w = k^(D-stage-1)` — no walk needed.
    #[must_use]
    pub fn reverse_amalgam_at(&self, pe: PeId, mm: MmId, stage: usize) -> usize {
        let w = self.weight[stage];
        pe.0 - pe.0 % w + mm.0 % w
    }
}

impl std::ops::Deref for RouteTables {
    type Target = Topology;

    fn deref(&self) -> &Topology {
        &self.topo
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
    fn route_tables_agree_with_topology_everywhere() {
        for (n, k) in [
            (8usize, 2usize),
            (64, 2),
            (64, 4),
            (64, 8),
            (16, 16),
            (4, 4),
            (27, 3), // not a power of two: the dividing path
        ] {
            let topo = Topology::new(n, k);
            let tables = RouteTables::new(topo);
            assert_eq!(tables.stages(), topo.stages(), "deref passthrough");
            for line in 0..n {
                assert_eq!(tables.shuffle(line), topo.shuffle(line));
                assert_eq!(tables.unshuffle(line), topo.unshuffle(line));
                assert_eq!(tables.pe_entry(PeId(line)), topo.pe_entry(PeId(line)));
                assert_eq!(
                    tables.reverse_entry(MmId(line)),
                    topo.reverse_entry(MmId(line))
                );
                for s in 0..topo.stages() {
                    assert_eq!(
                        tables.forward_out_port(MmId(line), s),
                        topo.forward_out_port(MmId(line), s)
                    );
                    assert_eq!(
                        tables.reverse_out_port(PeId(line), s),
                        topo.reverse_out_port(PeId(line), s)
                    );
                }
            }
            for s in 0..topo.stages() {
                for sw in 0..topo.switches_per_stage() {
                    for port in 0..k {
                        assert_eq!(
                            tables.forward_next(s, sw, port),
                            topo.forward_next(s, sw, port)
                        );
                        assert_eq!(
                            tables.reverse_next(s, sw, port),
                            topo.reverse_next(s, sw, port)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn route_tables_amalgam_matches_walked_form() {
        for (n, k) in [(16usize, 2usize), (64, 4), (64, 8), (27, 3)] {
            let topo = Topology::new(n, k);
            let tables = RouteTables::new(topo);
            for pe in 0..n {
                for mm in 0..n {
                    for s in 0..topo.stages() {
                        assert_eq!(
                            tables.reverse_amalgam_at(PeId(pe), MmId(mm), s),
                            topo.reverse_amalgam_at(PeId(pe), MmId(mm), s),
                            "closed form diverged at pe={pe} mm={mm} stage={s}"
                        );
                        for in_port in 0..k {
                            assert_eq!(
                                tables.step_amalgam(mm, s, in_port),
                                topo.step_amalgam(mm, s, in_port)
                            );
                        }
                        assert_eq!(
                            tables.amalgam_out_port(mm, s),
                            topo.forward_out_port(MmId(mm), s),
                            "a fresh amalgam routes like its destination"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn render_covers_every_pe_mm_and_port_once() {
        for (n, k) in [(8usize, 2usize), (16, 4)] {
            let t = Topology::new(n, k);
            let text = t.render();
            // Every PE and MM appears exactly once as an endpoint.
            for pe in 0..n {
                let needle = format!("PE{pe}");
                let hits = text
                    .match_indices(&needle)
                    .filter(|(i, _)| {
                        // Avoid counting PE1 inside PE10 etc.
                        !text[i + needle.len()..].starts_with(|c: char| c.is_ascii_digit())
                    })
                    .count();
                assert_eq!(hits, 1, "PE{pe} in\n{text}");
            }
            for mm in 0..n {
                let needle = format!("MM{mm}");
                let hits = text
                    .match_indices(&needle)
                    .filter(|(i, _)| {
                        !text[i + needle.len()..].starts_with(|c: char| c.is_ascii_digit())
                    })
                    .count();
                assert_eq!(hits, 1, "MM{mm} in\n{text}");
            }
            // No input port was left unwired.
            assert!(!text.contains('?'), "unwired port in\n{text}");
        }
    }
}
