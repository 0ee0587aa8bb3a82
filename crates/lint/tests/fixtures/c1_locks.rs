//! C1 fixture: `?` under held guards and a two-lock ordering cycle.
//! Linted as a lock-scope path.

use std::sync::Mutex;

pub struct Store {
    index: Mutex<Vec<u64>>,
    journal: Mutex<Vec<u64>>,
}

impl Store {
    pub fn rebalance(&self) -> Result<(), std::io::Error> {
        let index = self.index.lock();
        let journal = self.journal.lock();
        let bytes = std::fs::read("segment.bin")?;
        let _n = bytes.len();
        drop(journal);
        drop(index);
        Ok(())
    }

    pub fn forward(&self) {
        let _a = self.index.lock();
        let _b = self.journal.lock();
    }

    pub fn backward(&self) {
        let _b = self.journal.lock();
        let _a = self.index.lock();
    }

    pub fn disciplined(&self) -> Result<u64, std::io::Error> {
        let bytes = std::fs::read("segment.bin")?;
        let guard = self.index.lock();
        let n = bytes.len() as u64;
        drop(guard);
        Ok(n)
    }
}
