// Fixture: L7 (lock-discipline). One channel op and one park under a live
// guard, one inconsistent lock-order pair; the disciplined fns stay clean.
// Not compiled — read as text.

use std::sync::mpsc::Sender;
use std::sync::{Mutex, RwLock};

pub struct Pool {
    queue: Mutex<Vec<u32>>,
    merge: Mutex<Vec<u32>>,
    tx: Sender<u32>,
}

impl Pool {
    pub fn send_while_locked(&self) {
        let guard = self.queue.lock();
        self.tx.send(7);
        drop(guard);
    }

    pub fn queue_then_merge(&self) {
        let a = self.queue.lock();
        let b = self.merge.lock();
        drop(b);
        drop(a);
    }

    pub fn merge_then_queue(&self) {
        let b = self.merge.lock();
        let a = self.queue.lock();
        drop(a);
        drop(b);
    }

    pub fn disciplined(&self) {
        {
            let guard = self.queue.lock();
            drop(guard);
        }
        self.tx.send(9);
    }

    pub fn temporary_released_at_semicolon(&self) {
        self.queue.lock();
        self.tx.send(11);
    }
}

pub struct Barrier {
    cmd: RwLock<u32>,
    input: std::fs::File,
}

impl Barrier {
    pub fn park_while_reading(&self) {
        let cmd = self.cmd.read();
        std::thread::park();
        drop(cmd);
    }

    pub fn park_after_release(&self) {
        let cmd = self.cmd.write();
        drop(cmd);
        std::thread::park();
    }

    pub fn io_read_is_not_a_guard(&mut self, buf: &mut [u8]) {
        self.input.read(buf);
        std::thread::park();
    }
}
