//! F1 fixture: stages whose `run()` reads state that `fingerprint()`
//! never hashes, plus a hashed field no computation ever reads.

pub struct Fingerprint(u64);
pub struct Hasher;
impl Hasher {
    pub fn new() -> Hasher {
        Hasher
    }
    pub fn write(&mut self, _v: u64) {}
    pub fn finish(&self) -> Fingerprint {
        Fingerprint(0)
    }
}
pub struct RunContext;
impl RunContext {
    pub fn threads(&self) -> usize {
        1
    }
}
pub trait Stage {
    fn fingerprint(&self) -> Fingerprint;
    fn run(&mut self, ctx: &RunContext) -> u64;
}

pub struct Leaky {
    pub rate: u64,
    pub bins: u64,
    pub relic: u64,
    pub deep: u64,
}

impl Leaky {
    fn helper(&self) -> u64 {
        self.deep
    }
}

impl Stage for Leaky {
    fn fingerprint(&self) -> Fingerprint {
        let mut h = Hasher::new();
        h.write(self.rate);
        h.write(self.relic);
        h.finish()
    }
    fn run(&mut self, ctx: &RunContext) -> u64 {
        let width = self.bins + self.rate;
        let depth = self.helper();
        width + depth + ctx.threads() as u64
    }
}

pub struct Clean {
    pub rate: u64,
}

impl Stage for Clean {
    fn fingerprint(&self) -> Fingerprint {
        let mut h = Hasher::new();
        h.write(self.rate);
        h.finish()
    }
    fn run(&mut self, _ctx: &RunContext) -> u64 {
        self.rate
    }
}

impl RunContext {
    pub fn plan(&self) -> u64 {
        0
    }
}

pub struct PlanBlind {
    pub rate: u64,
}

impl Stage for PlanBlind {
    fn fingerprint(&self) -> Fingerprint {
        let mut h = Hasher::new();
        h.write(self.rate);
        h.finish()
    }
    fn run(&mut self, ctx: &RunContext) -> u64 {
        self.rate + ctx.plan()
    }
}
