//! Size-classed slab files with in-place slot updates.
//!
//! A slab stores fixed-size items:
//!
//! ```text
//! slot := key_len: u16 | val_len: u32 | key | value | padding
//! ```
//!
//! `key_len == 0` marks a free (or deleted) slot. Writes overwrite one
//! slot in place — the KVell commit model: once the slot write completes
//! the item is durable, no log needed. Recovery scans all slots to rebuild
//! the in-memory index.

use std::io;

use p2kvs_storage::{EnvRef, RandomRwFile};

/// Item size classes (slot sizes in bytes, including the 6-byte header).
pub const SIZE_CLASSES: &[usize] = &[64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768];

/// Slot header bytes (`key_len: u16 | val_len: u32`).
pub const HEADER: usize = 6;

/// Picks the smallest class index fitting `key_len + val_len` payload.
pub fn class_for(key_len: usize, val_len: usize) -> Option<usize> {
    let need = HEADER + key_len + val_len;
    SIZE_CLASSES.iter().position(|&c| c >= need)
}

/// One slab file: an array of `slot_size`d slots.
pub struct Slab {
    file: Box<dyn RandomRwFile>,
    /// Slot size of this slab's class.
    pub slot_size: usize,
    /// Number of slots ever allocated (including freed ones).
    slots: u64,
    free: Vec<u64>,
}

impl Slab {
    /// Opens (or creates) the slab for `class_idx` inside `dir`, scanning
    /// existing slots and reporting live items to `on_item`.
    pub fn open(
        env: &EnvRef,
        dir: &std::path::Path,
        class_idx: usize,
        mut on_item: impl FnMut(u64, Vec<u8>, Vec<u8>),
    ) -> io::Result<Slab> {
        let slot_size = SIZE_CLASSES[class_idx];
        let path = dir.join(format!("{class_idx}.slab"));
        let file = env.new_random_rw(&path)?;
        let slots = file.len() / slot_size as u64;
        let mut free = Vec::new();
        let mut buf = vec![0u8; slot_size];
        for slot in 0..slots {
            file.read_at(slot * slot_size as u64, &mut buf)?;
            match decode(&buf) {
                Some((key, value)) => on_item(slot, key, value),
                None => free.push(slot),
            }
        }
        Ok(Slab {
            file,
            slot_size,
            slots,
            free,
        })
    }

    fn encode(&self, key: &[u8], value: &[u8]) -> Vec<u8> {
        debug_assert!(HEADER + key.len() + value.len() <= self.slot_size);
        let mut buf = vec![0u8; self.slot_size];
        buf[0..2].copy_from_slice(&(key.len() as u16).to_le_bytes());
        buf[2..6].copy_from_slice(&(value.len() as u32).to_le_bytes());
        buf[HEADER..HEADER + key.len()].copy_from_slice(key);
        buf[HEADER + key.len()..HEADER + key.len() + value.len()].copy_from_slice(value);
        buf
    }

    /// Writes `key -> value` into `slot` in place (one slot-sized IO).
    pub fn write_slot(&mut self, slot: u64, key: &[u8], value: &[u8]) -> io::Result<()> {
        let buf = self.encode(key, value);
        self.file.write_at(slot * self.slot_size as u64, &buf)
    }

    /// Allocates a slot (reusing the free list, else growing the file) and
    /// writes the item. Returns the slot index.
    pub fn insert(&mut self, key: &[u8], value: &[u8]) -> io::Result<u64> {
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                let s = self.slots;
                self.slots += 1;
                s
            }
        };
        self.write_slot(slot, key, value)?;
        Ok(slot)
    }

    /// Marks `slot` free (zeroed header) and recycles it.
    pub fn free_slot(&mut self, slot: u64) -> io::Result<()> {
        let zero = vec![0u8; self.slot_size];
        self.file.write_at(slot * self.slot_size as u64, &zero)?;
        self.free.push(slot);
        Ok(())
    }

    /// Reads the item at `slot`, or `None` for a free slot.
    pub fn read_slot(&self, slot: u64) -> io::Result<Option<(Vec<u8>, Vec<u8>)>> {
        let mut buf = vec![0u8; self.slot_size];
        self.file.read_at(slot * self.slot_size as u64, &mut buf)?;
        Ok(decode(&buf))
    }

    /// Total slots (live + free).
    pub fn len(&self) -> u64 {
        self.slots
    }

    /// Whether the slab has no slots.
    pub fn is_empty(&self) -> bool {
        self.slots == 0
    }
}

/// Decodes a slot buffer into `(key, value)`, or `None` if free/corrupt.
fn decode(buf: &[u8]) -> Option<(Vec<u8>, Vec<u8>)> {
    let key_len = u16::from_le_bytes([buf[0], buf[1]]) as usize;
    if key_len == 0 {
        return None;
    }
    let val_len = u32::from_le_bytes([buf[2], buf[3], buf[4], buf[5]]) as usize;
    if HEADER + key_len + val_len > buf.len() {
        return None;
    }
    Some((
        buf[HEADER..HEADER + key_len].to_vec(),
        buf[HEADER + key_len..HEADER + key_len + val_len].to_vec(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2kvs_storage::MemEnv;
    use std::sync::Arc;

    fn env() -> EnvRef {
        Arc::new(MemEnv::new())
    }

    #[test]
    fn class_selection() {
        assert_eq!(class_for(10, 10), Some(0)); // 26 <= 64
        assert_eq!(class_for(10, 100), Some(1)); // 116 <= 128
        assert_eq!(SIZE_CLASSES[class_for(16, 1024).unwrap()], 2048);
        assert!(class_for(10, 1 << 20).is_none());
    }

    #[test]
    fn insert_read_roundtrip() {
        let env = env();
        env.create_dir_all(std::path::Path::new("s")).unwrap();
        let mut slab = Slab::open(&env, std::path::Path::new("s"), 1, |_, _, _| {}).unwrap();
        let a = slab.insert(b"alpha", b"one").unwrap();
        let b = slab.insert(b"beta", b"two").unwrap();
        assert_ne!(a, b);
        assert_eq!(
            slab.read_slot(a).unwrap().unwrap(),
            (b"alpha".to_vec(), b"one".to_vec())
        );
        assert_eq!(
            slab.read_slot(b).unwrap().unwrap(),
            (b"beta".to_vec(), b"two".to_vec())
        );
    }

    #[test]
    fn in_place_update_does_not_grow() {
        let env = env();
        env.create_dir_all(std::path::Path::new("s")).unwrap();
        let mut slab = Slab::open(&env, std::path::Path::new("s"), 1, |_, _, _| {}).unwrap();
        let slot = slab.insert(b"k", b"v1").unwrap();
        slab.write_slot(slot, b"k", b"v2-longer").unwrap();
        assert_eq!(
            slab.read_slot(slot).unwrap().unwrap(),
            (b"k".to_vec(), b"v2-longer".to_vec())
        );
        assert_eq!(slab.len(), 1);
    }

    #[test]
    fn free_and_reuse() {
        let env = env();
        env.create_dir_all(std::path::Path::new("s")).unwrap();
        let mut slab = Slab::open(&env, std::path::Path::new("s"), 0, |_, _, _| {}).unwrap();
        let a = slab.insert(b"a", b"1").unwrap();
        slab.free_slot(a).unwrap();
        assert_eq!(slab.read_slot(a).unwrap(), None);
        let b = slab.insert(b"b", b"2").unwrap();
        assert_eq!(b, a, "free slot must be recycled");
        assert_eq!(slab.len(), 1);
    }

    #[test]
    fn recovery_scan_reports_live_items() {
        let env = env();
        let dir = std::path::Path::new("s");
        env.create_dir_all(dir).unwrap();
        {
            let mut slab = Slab::open(&env, dir, 0, |_, _, _| {}).unwrap();
            slab.insert(b"keep1", b"v1").unwrap();
            let dead = slab.insert(b"dead", b"x").unwrap();
            slab.insert(b"keep2", b"v2").unwrap();
            slab.free_slot(dead).unwrap();
        }
        let mut seen = Vec::new();
        let _slab = Slab::open(&env, dir, 0, |slot, k, v| seen.push((slot, k, v))).unwrap();
        seen.sort();
        assert_eq!(
            seen,
            vec![
                (0, b"keep1".to_vec(), b"v1".to_vec()),
                (2, b"keep2".to_vec(), b"v2".to_vec()),
            ]
        );
    }

    #[test]
    fn writes_survive_power_failure() {
        // Slot writes are durable immediately: no WAL, no sync dance.
        let mem = Arc::new(MemEnv::new());
        let env: EnvRef = mem.clone();
        let dir = std::path::Path::new("s");
        env.create_dir_all(dir).unwrap();
        {
            let mut slab = Slab::open(&env, dir, 0, |_, _, _| {}).unwrap();
            slab.insert(b"durable", b"yes").unwrap();
        }
        mem.fs().power_failure();
        let mut seen = Vec::new();
        let _ = Slab::open(&env, dir, 0, |_, k, v| seen.push((k, v))).unwrap();
        assert_eq!(seen, vec![(b"durable".to_vec(), b"yes".to_vec())]);
    }
}
