//! The wildcard-match table: priority-ordered linear search with
//! per-field enable bits and CIDR masks for the IP fields — the
//! reference-switch semantics the paper reimplements (§6.2.3).
//!
//! Entries serialize into a flat 64-byte-per-entry image so the same
//! match loop runs on the CPU (slice) and the simulated GPU (device
//! memory via `TableMem`). Hardware switches use TCAM for this; the
//! linear scan is precisely the cost Figure 11(c) sweeps.

use std::sync::{Arc, OnceLock};

use ps_lookup::mem::{SliceMem, TableMem};
use ps_net::FlowKey;

use crate::action::Action;

/// Field-presence bits (1 = match this field).
pub mod wc {
    /// Match `in_port`.
    pub(crate) const IN_PORT: u16 = 1 << 0;
    /// Match `dl_src`.
    pub(crate) const DL_SRC: u16 = 1 << 1;
    /// Match `dl_dst`.
    pub(crate) const DL_DST: u16 = 1 << 2;
    /// Match `dl_vlan`.
    pub(crate) const DL_VLAN: u16 = 1 << 3;
    /// Match `dl_type`.
    pub(crate) const DL_TYPE: u16 = 1 << 4;
    /// Match `nw_src` under its mask.
    pub(crate) const NW_SRC: u16 = 1 << 5;
    /// Match `nw_dst` under its mask.
    pub const NW_DST: u16 = 1 << 6;
    /// Match `nw_proto`.
    pub const NW_PROTO: u16 = 1 << 7;
    /// Match `tp_src`.
    pub(crate) const TP_SRC: u16 = 1 << 8;
    /// Match `tp_dst`.
    pub const TP_DST: u16 = 1 << 9;
}

/// One wildcard rule.
#[derive(Debug, Clone, Copy)]
pub struct WildcardEntry {
    /// Which fields participate in the match.
    pub fields: u16,
    /// Higher priority wins; ties resolve to the earlier insertion.
    pub priority: u16,
    /// Template key (only enabled fields are consulted).
    pub key: FlowKey,
    /// CIDR mask for `nw_src` (host-order bits).
    pub nw_src_mask: u32,
    /// CIDR mask for `nw_dst`.
    pub nw_dst_mask: u32,
    /// Action on match.
    pub action: Action,
}

impl WildcardEntry {
    /// Does `key` satisfy this rule?
    pub fn matches(&self, key: &FlowKey) -> bool {
        let f = self.fields;
        (f & wc::IN_PORT == 0 || key.in_port == self.key.in_port)
            && (f & wc::DL_SRC == 0 || key.dl_src == self.key.dl_src)
            && (f & wc::DL_DST == 0 || key.dl_dst == self.key.dl_dst)
            && (f & wc::DL_VLAN == 0 || key.dl_vlan == self.key.dl_vlan)
            && (f & wc::DL_TYPE == 0 || key.dl_type == self.key.dl_type)
            && (f & wc::NW_SRC == 0
                || key.nw_src & self.nw_src_mask == self.key.nw_src & self.nw_src_mask)
            && (f & wc::NW_DST == 0
                || key.nw_dst & self.nw_dst_mask == self.key.nw_dst & self.nw_dst_mask)
            && (f & wc::NW_PROTO == 0 || key.nw_proto == self.key.nw_proto)
            && (f & wc::TP_SRC == 0 || key.tp_src == self.key.tp_src)
            && (f & wc::TP_DST == 0 || key.tp_dst == self.key.tp_dst)
    }
}

/// Bytes per serialized entry.
pub const ENTRY_SIZE: usize = 64;

/// The wildcard table, kept sorted by descending priority.
#[derive(Debug, Default)]
pub struct WildcardTable {
    entries: Vec<WildcardEntry>,
    /// The serialized image, built on first use after the last insert.
    image: OnceLock<Arc<Vec<u8>>>,
}

impl WildcardTable {
    /// An empty table.
    pub fn new() -> WildcardTable {
        WildcardTable::default()
    }

    /// Installed rules.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Install a rule (stable sort keeps insertion order within a
    /// priority level).
    pub fn insert(&mut self, entry: WildcardEntry) {
        let pos = self
            .entries
            .partition_point(|e| e.priority >= entry.priority);
        self.entries.insert(pos, entry);
        self.image.take();
    }

    /// Linear search; first (= highest-priority) match wins. Returns
    /// the action and how many entries were scanned (the cost).
    pub fn lookup(&self, key: &FlowKey) -> (Option<Action>, usize) {
        for (i, e) in self.entries.iter().enumerate() {
            if e.matches(key) {
                return (Some(e.action), i + 1);
            }
        }
        (None, self.entries.len())
    }

    /// Serialize to the flat image the GPU kernel scans.
    ///
    /// Entry layout (little-endian):
    /// `fields:u16 prio:u16 in_port:u16 dl_vlan:u16 dl_type:u16
    ///  nw_proto:u8 pad:u8 tp_src:u16 tp_dst:u16 nw_src:u32
    ///  nw_src_mask:u32 nw_dst:u32 nw_dst_mask:u32 dl_src:6 dl_dst:6
    ///  action:u16 pad..64`
    pub fn to_image(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.entries.len() * ENTRY_SIZE];
        for (i, e) in self.entries.iter().enumerate() {
            let o = i * ENTRY_SIZE;
            out[o..o + 2].copy_from_slice(&e.fields.to_le_bytes());
            out[o + 2..o + 4].copy_from_slice(&e.priority.to_le_bytes());
            out[o + 4..o + 6].copy_from_slice(&e.key.in_port.to_le_bytes());
            out[o + 6..o + 8].copy_from_slice(&e.key.dl_vlan.to_le_bytes());
            out[o + 8..o + 10].copy_from_slice(&e.key.dl_type.to_le_bytes());
            out[o + 10] = e.key.nw_proto;
            out[o + 12..o + 14].copy_from_slice(&e.key.tp_src.to_le_bytes());
            out[o + 14..o + 16].copy_from_slice(&e.key.tp_dst.to_le_bytes());
            out[o + 16..o + 20].copy_from_slice(&e.key.nw_src.to_le_bytes());
            out[o + 20..o + 24].copy_from_slice(&e.nw_src_mask.to_le_bytes());
            out[o + 24..o + 28].copy_from_slice(&e.key.nw_dst.to_le_bytes());
            out[o + 28..o + 32].copy_from_slice(&e.nw_dst_mask.to_le_bytes());
            out[o + 32..o + 38].copy_from_slice(&e.key.dl_src);
            out[o + 38..o + 44].copy_from_slice(&e.key.dl_dst);
            out[o + 44..o + 46].copy_from_slice(&e.action.encode().to_le_bytes());
        }
        out
    }

    /// The serialized image behind one `Arc`: every call until the
    /// next insert returns the same allocation, so every device that
    /// maps it maps the same bytes.
    pub fn shared_image(&self) -> Arc<Vec<u8>> {
        Arc::clone(self.image.get_or_init(|| Arc::new(self.to_image())))
    }

    /// The match loop over a serialized image; used verbatim by the
    /// GPU kernel. Returns `(encoded_action, entries_scanned)`;
    /// `None` action when nothing matches after scanning all entries.
    pub fn lookup_image<M: TableMem>(
        mem: &mut M,
        base: usize,
        n_entries: usize,
        key: &FlowKey,
    ) -> (Option<u16>, usize) {
        for i in 0..n_entries {
            let o = base + i * ENTRY_SIZE;
            // One 64B entry = typically one cache line / segment read.
            let raw: [u8; 46] = mem.read_bytes::<46>(o);
            let fields = u16::from_le_bytes([raw[0], raw[1]]);
            let m_in_port = u16::from_le_bytes([raw[4], raw[5]]);
            let m_vlan = u16::from_le_bytes([raw[6], raw[7]]);
            let m_type = u16::from_le_bytes([raw[8], raw[9]]);
            let m_proto = raw[10];
            let m_tp_src = u16::from_le_bytes([raw[12], raw[13]]);
            let m_tp_dst = u16::from_le_bytes([raw[14], raw[15]]);
            let m_nw_src = u32::from_le_bytes([raw[16], raw[17], raw[18], raw[19]]);
            let m_src_mask = u32::from_le_bytes([raw[20], raw[21], raw[22], raw[23]]);
            let m_nw_dst = u32::from_le_bytes([raw[24], raw[25], raw[26], raw[27]]);
            let m_dst_mask = u32::from_le_bytes([raw[28], raw[29], raw[30], raw[31]]);
            let m_dl_src: [u8; 6] = raw[32..38].try_into().expect("fixed");
            let m_dl_dst: [u8; 6] = raw[38..44].try_into().expect("fixed");
            let action = u16::from_le_bytes([raw[44], raw[45]]);

            let hit = (fields & wc::IN_PORT == 0 || key.in_port == m_in_port)
                && (fields & wc::DL_SRC == 0 || key.dl_src == m_dl_src)
                && (fields & wc::DL_DST == 0 || key.dl_dst == m_dl_dst)
                && (fields & wc::DL_VLAN == 0 || key.dl_vlan == m_vlan)
                && (fields & wc::DL_TYPE == 0 || key.dl_type == m_type)
                && (fields & wc::NW_SRC == 0 || key.nw_src & m_src_mask == m_nw_src & m_src_mask)
                && (fields & wc::NW_DST == 0 || key.nw_dst & m_dst_mask == m_nw_dst & m_dst_mask)
                && (fields & wc::NW_PROTO == 0 || key.nw_proto == m_proto)
                && (fields & wc::TP_SRC == 0 || key.tp_src == m_tp_src)
                && (fields & wc::TP_DST == 0 || key.tp_dst == m_tp_dst);
            if hit {
                return (Some(action), i + 1);
            }
        }
        (None, n_entries)
    }

    /// Convenience: image lookup against this table's own image.
    pub fn lookup_via_image(&self, key: &FlowKey) -> (Option<Action>, usize) {
        let image = self.to_image();
        let mut mem = SliceMem::new(&image);
        let (raw, scanned) = Self::lookup_image(&mut mem, 0, self.entries.len(), key);
        (raw.map(Action::decode), scanned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(fields: u16, priority: u16, action: Action) -> WildcardEntry {
        WildcardEntry {
            fields,
            priority,
            key: FlowKey {
                in_port: 2,
                dl_type: 0x0800,
                nw_src: 0x0A000000,
                nw_dst: 0x0B000000,
                nw_proto: 17,
                tp_src: 1000,
                tp_dst: 53,
                dl_vlan: 0xFFFF,
                ..FlowKey::default()
            },
            nw_src_mask: 0xFF000000,
            nw_dst_mask: 0xFFFF0000,
            action,
        }
    }

    fn packet_key() -> FlowKey {
        FlowKey {
            in_port: 2,
            dl_type: 0x0800,
            nw_src: 0x0A223344,
            nw_dst: 0x0B005566,
            nw_proto: 17,
            tp_src: 1000,
            tp_dst: 53,
            dl_vlan: 0xFFFF,
            ..FlowKey::default()
        }
    }

    #[test]
    fn masked_ip_match() {
        let mut t = WildcardTable::new();
        t.insert(entry(wc::NW_SRC | wc::NW_DST, 10, Action::Output(1)));
        let (a, scanned) = t.lookup(&packet_key());
        assert_eq!(a, Some(Action::Output(1)));
        assert_eq!(scanned, 1);
        // Off-mask address misses.
        let mut k = packet_key();
        k.nw_src = 0x0C000000;
        assert_eq!(t.lookup(&k).0, None);
    }

    #[test]
    fn priority_order_wins() {
        let mut t = WildcardTable::new();
        t.insert(entry(wc::NW_SRC, 1, Action::Drop));
        t.insert(entry(wc::NW_SRC, 100, Action::Output(7)));
        t.insert(entry(wc::NW_SRC, 50, Action::Output(2)));
        let (a, _) = t.lookup(&packet_key());
        assert_eq!(a, Some(Action::Output(7)));
    }

    #[test]
    fn match_all_entry() {
        let mut t = WildcardTable::new();
        t.insert(entry(0, 0, Action::Controller));
        // fields==0 matches anything.
        assert_eq!(t.lookup(&FlowKey::default()).0, Some(Action::Controller));
    }

    #[test]
    fn scan_cost_grows_with_misses() {
        let mut t = WildcardTable::new();
        for p in 0..100 {
            let mut e = entry(wc::TP_DST, p, Action::Drop);
            e.key.tp_dst = 10_000 + p; // never matches port 53
            t.insert(e);
        }
        let (a, scanned) = t.lookup(&packet_key());
        assert_eq!(a, None);
        assert_eq!(scanned, 100);
    }

    #[test]
    fn per_field_matching() {
        // Each field bit must actually gate its comparison.
        let fields = [
            wc::IN_PORT,
            wc::DL_SRC,
            wc::DL_DST,
            wc::DL_VLAN,
            wc::DL_TYPE,
            wc::NW_SRC,
            wc::NW_DST,
            wc::NW_PROTO,
            wc::TP_SRC,
            wc::TP_DST,
        ];
        for f in fields {
            let mut t = WildcardTable::new();
            let mut e = entry(f, 1, Action::Output(1));
            e.nw_src_mask = u32::MAX;
            e.nw_dst_mask = u32::MAX;
            e.key = packet_key();
            t.insert(e);
            assert_eq!(
                t.lookup(&packet_key()).0,
                Some(Action::Output(1)),
                "field {f:#x}"
            );
            // Perturb the matched field -> miss.
            let mut k = packet_key();
            match f {
                wc::IN_PORT => k.in_port ^= 1,
                wc::DL_SRC => k.dl_src[0] ^= 1,
                wc::DL_DST => k.dl_dst[0] ^= 1,
                wc::DL_VLAN => k.dl_vlan ^= 1,
                wc::DL_TYPE => k.dl_type ^= 1,
                wc::NW_SRC => k.nw_src ^= 1,
                wc::NW_DST => k.nw_dst ^= 1,
                wc::NW_PROTO => k.nw_proto ^= 1,
                wc::TP_SRC => k.tp_src ^= 1,
                _ => k.tp_dst ^= 1,
            }
            assert_eq!(t.lookup(&k).0, None, "field {f:#x} perturbed");
        }
    }

    #[test]
    fn image_lookup_agrees_with_native() {
        let mut t = WildcardTable::new();
        t.insert(entry(wc::NW_SRC | wc::TP_DST, 5, Action::Output(3)));
        t.insert(entry(wc::NW_DST, 9, Action::Drop));
        for key in [packet_key(), FlowKey::default(), {
            let mut k = packet_key();
            k.nw_dst = 0x0B00FFFF;
            k.tp_dst = 99;
            k
        }] {
            let native = t.lookup(&key);
            let image = t.lookup_via_image(&key);
            assert_eq!(native, image, "key {key:?}");
        }
    }

    #[test]
    fn image_size() {
        let mut t = WildcardTable::new();
        for p in 0..32 {
            t.insert(entry(wc::NW_SRC, p, Action::Drop));
        }
        assert_eq!(t.to_image().len(), 32 * ENTRY_SIZE);
    }
}
