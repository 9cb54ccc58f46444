//! Property tests for MTT consistency and verbs protection rules.

use stellar_pcie::addr::{Gva, Hpa, Iova, PAGE_4K};
use stellar_pcie::topology::DeviceId;
use stellar_rnic::mtt::{MemOwner, Mtt, MttConfig, MttEntry, MttError};
use stellar_rnic::verbs::{AccessFlags, QpState, Verbs};
use stellar_rnic::MrKey;
use stellar_sim::proptest_lite::check;

/// eMTT lookups always resolve to the registered per-page entry, for
/// arbitrary (page count, base, owner) combinations.
#[test]
fn emtt_lookup_consistency() {
    check("emtt_lookup_consistency", 256, |g| {
        let pages = g.u64(1, 128);
        let base_page = g.u64(0, 10_000);
        let hpa_page = g.u64(0, 10_000);
        let probe = g.u64(0, 128);
        let offset = g.u64(0, PAGE_4K);
        let gpu = g.bool();
        let mut mtt = Mtt::new(MttConfig::default());
        let base = Gva(base_page * PAGE_4K);
        let hpa = Hpa(hpa_page * PAGE_4K);
        let owner = if gpu {
            MemOwner::Gpu(DeviceId(1))
        } else {
            MemOwner::HostMem
        };
        mtt.register_extended_contiguous(MrKey(1), base, hpa, pages * PAGE_4K, owner)
            .unwrap();
        let q = Gva(base.0 + probe * PAGE_4K + offset);
        let r = mtt.lookup(MrKey(1), q);
        if probe < pages {
            let (entry, off) = r.unwrap();
            assert_eq!(off, offset);
            match entry {
                MttEntry::Extended { hpa: h, owner: o } => {
                    assert_eq!(h, Hpa(hpa.0 + probe * PAGE_4K));
                    assert_eq!(o, owner);
                }
                MttEntry::Legacy { .. } => panic!("wrong entry kind"),
            }
        } else {
            assert!(r.is_err());
        }
    });
}

/// Capacity accounting: used entries always equal the sum of registered
/// regions' pages, across arbitrary registration sequences; registering
/// a live key again is rejected and consumes nothing.
#[test]
fn mtt_capacity_accounting() {
    check("mtt_capacity_accounting", 256, |g| {
        let ops = g.vec(1, 50, |g| (g.u32(0, 8), g.u64(1, 32)));
        let mut mtt = Mtt::new(MttConfig {
            capacity_entries: 10_000,
        });
        let mut live: std::collections::HashMap<u32, u64> = Default::default();
        for (key, pages) in ops {
            let r = mtt.register_legacy_contiguous(
                MrKey(key),
                Gva((key as u64) << 32),
                Iova(0),
                pages * PAGE_4K,
            );
            if let std::collections::hash_map::Entry::Vacant(e) = live.entry(key) {
                r.unwrap();
                e.insert(pages);
            } else {
                assert_eq!(r, Err(MttError::AlreadyRegistered(MrKey(key))));
            }
            assert_eq!(mtt.used_entries() as u64, live.values().sum::<u64>());
        }
    });
}

/// The protection-domain rule holds for arbitrary QP/MR pairings:
/// access succeeds iff same PD, in bounds, permitted, and QP ready.
#[test]
fn pd_rule_is_total() {
    check("pd_rule_is_total", 256, |g| {
        let qp_pd = g.usize(0, 3);
        let mr_pd = g.usize(0, 3);
        let ready = g.bool();
        let len = g.u64(1, 0x3000);
        let start = g.u64(0, 0x3000);
        let writable = g.bool();
        let mut v = Verbs::new();
        let pds = [v.alloc_pd(), v.alloc_pd(), v.alloc_pd()];
        let mr = v
            .register_mr(
                pds[mr_pd],
                Gva(0x1000),
                0x2000,
                if writable {
                    AccessFlags::all()
                } else {
                    AccessFlags::LOCAL_READ
                },
            )
            .unwrap();
        let qp = v.create_qp(pds[qp_pd]).unwrap();
        if ready {
            v.modify_qp(qp, QpState::Init).unwrap();
            v.modify_qp(qp, QpState::ReadyToReceive).unwrap();
            v.modify_qp(qp, QpState::ReadyToSend).unwrap();
        }
        let gva = Gva(0x1000 + start);
        let res = v.check_access(qp, mr, gva, len, AccessFlags::REMOTE_WRITE);
        let in_bounds = start + len <= 0x2000;
        let should_pass = ready && qp_pd == mr_pd && in_bounds && writable;
        assert_eq!(res.is_ok(), should_pass, "res={res:?}");
    });
}
