//! Applying fired faults to the live machine and the degraded-mode
//! reconfiguration that follows (route loss, dead modules).

use std::sync::Arc;

use ultra_faults::Fault;
use ultra_sim::{Cycle, MmId, PeId};

use super::{BackendImpl, CtxState, Machine};

impl Machine {
    /// Applies one fired fault to the live machine. Faults target the
    /// network backend; on the ideal backend they are no-ops.
    pub(super) fn apply_fault(&mut self, fault: Fault) {
        match fault {
            Fault::KillMm { mm } => self.kill_mm(mm),
            Fault::SlowMm { mm, factor } => {
                if let BackendImpl::Network(fabric) = &mut self.backend {
                    let service = self.cfg.time.cycles_per_mm_access;
                    fabric
                        .bank_mut(mm)
                        .set_service_time(service * Cycle::from(factor));
                }
            }
            _ => {
                if let BackendImpl::Network(fabric) = &mut self.backend {
                    if fabric.apply_copy_fault(fault) {
                        self.absorb_unreachable();
                    }
                }
            }
        }
    }

    /// Degraded-mode reconfiguration after route loss. Dead copies plus
    /// dead ports can sever routes entirely; requests on a severed route
    /// could never inject and would wedge the machine, so:
    ///
    /// 1. A PE with no route to *any* module in *any* copy is
    ///    fail-stopped (deconfigured) — the paper's fail-soft stance:
    ///    the machine keeps running with fewer PEs.
    /// 2. A module some *live* PE cannot reach is folded into the dead
    ///    set, the stand-in for the OS remapping memory away from
    ///    modules the degraded network no longer serves; re-hashing
    ///    (§3.1.4) adopts its words. At least one module always
    ///    survives.
    pub(super) fn absorb_unreachable(&mut self) {
        let n = self.cfg.net.pes;
        let BackendImpl::Network(fabric) = &self.backend else {
            return;
        };
        let Some(reach) = fabric.reachability() else {
            return;
        };
        for (pe, row) in reach.iter().enumerate() {
            if row.iter().all(|&ok| !ok) {
                self.deconfigure_pe(pe);
            }
        }
        let mut lost = vec![false; n];
        for (pe, row) in reach.iter().enumerate() {
            if self.dead_pes.contains(&PeId(pe)) {
                continue;
            }
            for (mm, &ok) in row.iter().enumerate() {
                if !ok {
                    lost[mm] = true;
                }
            }
        }
        for (mm, &lost) in lost.iter().enumerate() {
            if !lost || self.dead_mms.contains(&MmId(mm)) {
                continue;
            }
            if self.dead_mms.len() + 2 > n {
                break;
            }
            self.kill_mm(MmId(mm));
        }
    }

    /// Fail-stops physical PE `pe`: every context halts, queued and
    /// outstanding requests are abandoned (late replies for them are
    /// dropped as orphans). Mid-run deconfiguration does not release
    /// barriers the dead PE was expected at — like the real machine, a
    /// barrier with a dead participant never completes.
    fn deconfigure_pe(&mut self, pe: usize) {
        if self.dead_pes.contains(&PeId(pe)) {
            return;
        }
        self.dead_pes.push(PeId(pe));
        let k = self.cfg.contexts_per_pe;
        for ctx in &mut self.ctxs[pe * k..][..k] {
            if ctx.state != CtxState::Halted {
                ctx.state = CtxState::Halted;
                self.halted_count += 1;
            }
        }
        let shard = &mut self.shards[pe];
        self.outbound.clear(&mut shard.outgoing);
        shard.pni.abandon_all(&mut self.outstanding);
        self.outgoing.remove(pe);
        self.live.remove(pe);
        self.runnable.remove(pe);
    }

    /// Kills module `mm` mid-run: its contents are lost, what it holds is
    /// answered with NACKs (its PEs re-issue them), and translation
    /// re-hashes around the cumulative dead set.
    fn kill_mm(&mut self, mm: MmId) {
        // The last survivor never dies: degraded-mode absorption may
        // already have folded every other module into the dead set.
        if self.dead_mms.contains(&mm) || self.dead_mms.len() + 1 >= self.cfg.net.pes {
            return;
        }
        self.dead_mms.push(mm);
        // Every fork shares the old translator: the new one is built once,
        // and every PNI re-issues under it.
        Arc::make_mut(&mut self.hasher).set_dead_mms(&self.dead_mms);
        if let BackendImpl::Network(fabric) = &mut self.backend {
            fabric.kill_bank(mm);
        }
    }
}
