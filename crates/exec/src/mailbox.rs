//! Per-instance signal mailboxes and the ready list, shared by the
//! sequential and the sharded scheduler.
//!
//! Every instance has two FIFOs: a *self* queue for signals it sent to
//! itself (consumed first under the self-priority rule) and a *main*
//! queue for everything else. Both are singly linked lists threaded
//! through one node slab with a free list, so steady-state traffic
//! allocates nothing: the slab grows to the peak number of signals in
//! flight and then recycles its nodes.
//!
//! The mailboxes also own readiness. The ready list holds exactly the
//! instances with a non-empty mailbox, ascending by id: an instance joins
//! when a push fills its empty mailbox and leaves when a pop, a
//! positional removal or a clear empties it. Schedulers pick
//! `ready()[rng.below(len)]` and never maintain a membership mirror of
//! their own.

use xtuml_core::ids::InstId;

/// End-of-list marker for node links.
const NIL: u32 = u32::MAX;

/// Index of the self queue in a mailbox; the main queue is `1`.
const SELF_Q: usize = 0;

/// One queue: head and tail node plus length (for positional removal
/// and O(1) emptiness).
#[derive(Clone, Copy)]
struct Fifo {
    head: u32,
    tail: u32,
    len: u32,
}

const EMPTY: Fifo = Fifo {
    head: NIL,
    tail: NIL,
    len: 0,
};

/// A slab node: a queued value (`None` while on the free list) and the
/// next node of its queue, or of the free list.
struct Node<T> {
    val: Option<T>,
    next: u32,
}

/// Self and main FIFOs for every instance id, one node slab, and the
/// ascending ready list.
pub(crate) struct Mailboxes<T> {
    /// `boxes[inst] = [self queue, main queue]`.
    boxes: Vec<[Fifo; 2]>,
    nodes: Vec<Node<T>>,
    /// Head of the free-node list.
    free: u32,
    /// Instances with a non-empty mailbox, ascending by id.
    ready: Vec<InstId>,
}

impl<T> Mailboxes<T> {
    /// Empty mailboxes for ids `0..n`.
    pub(crate) fn with_len(n: usize) -> Mailboxes<T> {
        Mailboxes {
            boxes: vec![[EMPTY; 2]; n],
            nodes: Vec::new(),
            free: NIL,
            ready: Vec::new(),
        }
    }

    /// Extends the id space to `n` with empty mailboxes.
    pub(crate) fn grow_to(&mut self, n: usize) {
        if n > self.boxes.len() {
            self.boxes.resize(n, [EMPTY; 2]);
        }
    }

    /// The size of the id space.
    pub(crate) fn id_space(&self) -> usize {
        self.boxes.len()
    }

    /// Instances with at least one queued value, ascending by id.
    #[inline]
    pub(crate) fn ready(&self) -> &[InstId] {
        &self.ready
    }

    /// Number of values queued for `inst` (both queues).
    #[inline]
    pub(crate) fn len(&self, inst: InstId) -> usize {
        let [s, m] = &self.boxes[inst.index()];
        (s.len + m.len) as usize
    }

    /// True if nothing is queued for `inst`.
    #[inline]
    pub(crate) fn is_empty(&self, inst: InstId) -> bool {
        self.len(inst) == 0
    }

    /// Appends `val` to `inst`'s self queue (`to_self`) or main queue,
    /// making `inst` ready if its mailbox was empty.
    pub(crate) fn push(&mut self, inst: InstId, to_self: bool, val: T) {
        let was_empty = self.is_empty(inst);
        let n = match self.free {
            NIL => {
                assert!(self.nodes.len() < NIL as usize, "mailbox node slab is full");
                self.nodes.push(Node {
                    val: Some(val),
                    next: NIL,
                });
                self.nodes.len() as u32 - 1
            }
            n => {
                let node = &mut self.nodes[n as usize];
                self.free = node.next;
                node.val = Some(val);
                node.next = NIL;
                n
            }
        };
        let q = &mut self.boxes[inst.index()][if to_self { SELF_Q } else { 1 }];
        match q.tail {
            NIL => q.head = n,
            t => self.nodes[t as usize].next = n,
        }
        q.tail = n;
        q.len += 1;
        if was_empty {
            let at = self.ready.partition_point(|&r| r < inst);
            self.ready.insert(at, inst);
        }
    }

    /// Pops the front of `inst`'s self queue, or else of its main queue.
    pub(crate) fn pop(&mut self, inst: InstId) -> Option<T> {
        self.remove_at(inst, 0)
    }

    /// Removes the value at position `k` of `inst`'s self queue followed
    /// by its main queue (the `pair_order` ablation's random pick);
    /// `None` if fewer than `k + 1` values are queued.
    pub(crate) fn remove_at(&mut self, inst: InstId, k: usize) -> Option<T> {
        let [s, _] = self.boxes[inst.index()];
        let (lane, k) = if k < s.len as usize {
            (SELF_Q, k)
        } else {
            (1, k - s.len as usize)
        };
        let q = self.boxes[inst.index()][lane];
        if k >= q.len as usize {
            return None;
        }
        let (mut prev, mut cur) = (NIL, q.head);
        for _ in 0..k {
            prev = cur;
            cur = self.nodes[cur as usize].next;
        }
        let next = self.nodes[cur as usize].next;
        let q = &mut self.boxes[inst.index()][lane];
        match prev {
            NIL => q.head = next,
            p => self.nodes[p as usize].next = next,
        }
        if q.tail == cur {
            q.tail = prev;
        }
        q.len -= 1;
        if self.is_empty(inst) {
            self.unready(inst);
        }
        self.release(cur)
    }

    /// Drops everything queued for `inst` (instance deletion).
    pub(crate) fn clear(&mut self, inst: InstId) {
        if self.is_empty(inst) {
            return;
        }
        let lanes = std::mem::replace(&mut self.boxes[inst.index()], [EMPTY; 2]);
        self.unready(inst);
        for lane in lanes {
            let mut cur = lane.head;
            while cur != NIL {
                let next = self.nodes[cur as usize].next;
                self.release(cur);
                cur = next;
            }
        }
    }

    /// The values of `inst`'s self queue (`to_self`) or main queue, front
    /// first.
    pub(crate) fn iter(&self, inst: InstId, to_self: bool) -> impl Iterator<Item = &T> + '_ {
        let mut cur = self.boxes[inst.index()][if to_self { SELF_Q } else { 1 }].head;
        std::iter::from_fn(move || {
            let node = self.nodes.get(cur as usize)?;
            cur = node.next;
            node.val.as_ref()
        })
    }

    /// Returns node `n`, which the caller has just unlinked, to the free
    /// list, yielding its value.
    fn release(&mut self, n: u32) -> Option<T> {
        let node = &mut self.nodes[n as usize];
        node.next = self.free;
        self.free = n;
        node.val.take()
    }

    fn unready(&mut self, inst: InstId) {
        let at = self.ready.partition_point(|&r| r < inst);
        debug_assert_eq!(self.ready.get(at), Some(&inst));
        self.ready.remove(at);
    }

    /// Nodes ever allocated: the peak number of values in flight.
    #[cfg(test)]
    fn slab_len(&self) -> usize {
        self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(k: u32) -> InstId {
        InstId::new(k)
    }

    /// The ready list must equal the ascending list of non-empty boxes.
    fn check_ready(m: &Mailboxes<u32>) {
        let want: Vec<InstId> = (0..m.id_space() as u32)
            .map(id)
            .filter(|&i| !m.is_empty(i))
            .collect();
        assert_eq!(m.ready(), want.as_slice());
    }

    #[test]
    fn fifo_per_queue_with_self_first() {
        let mut m = Mailboxes::with_len(1);
        m.push(id(0), false, 1);
        m.push(id(0), true, 10);
        m.push(id(0), false, 2);
        m.push(id(0), true, 11);
        assert_eq!(m.len(id(0)), 4);
        assert_eq!(m.iter(id(0), true).copied().collect::<Vec<_>>(), [10, 11]);
        assert_eq!(m.iter(id(0), false).copied().collect::<Vec<_>>(), [1, 2]);
        let drained: Vec<u32> = std::iter::from_fn(|| m.pop(id(0))).collect();
        assert_eq!(drained, [10, 11, 1, 2]);
        assert!(m.is_empty(id(0)));
        assert!(m.ready().is_empty());
        // Pushing after a full drain starts a fresh list.
        m.push(id(0), false, 3);
        assert_eq!(m.pop(id(0)), Some(3));
        assert_eq!(m.pop(id(0)), None);
    }

    #[test]
    fn remove_at_indexes_self_then_main() {
        let mut m = Mailboxes::with_len(2);
        for v in [1, 2, 3] {
            m.push(id(1), false, v);
        }
        for v in [10, 11] {
            m.push(id(1), true, v);
        }
        // Positions: [10, 11 | 1, 2, 3].
        assert_eq!(m.remove_at(id(1), 5), None);
        assert_eq!(m.remove_at(id(1), 3), Some(2));
        assert_eq!(m.remove_at(id(1), 1), Some(11));
        // Removing the tail keeps appends in order.
        assert_eq!(m.remove_at(id(1), 2), Some(3));
        m.push(id(1), false, 4);
        assert_eq!(m.iter(id(1), false).copied().collect::<Vec<_>>(), [1, 4]);
        assert_eq!(m.remove_at(id(1), 0), Some(10));
        assert_eq!(m.remove_at(id(1), 0), Some(1));
        check_ready(&m);
        assert_eq!(m.remove_at(id(1), 0), Some(4));
        assert!(m.ready().is_empty());
    }

    #[test]
    fn clear_drops_both_queues_and_unreadies() {
        let mut m = Mailboxes::with_len(3);
        m.push(id(2), true, 1);
        m.push(id(2), false, 2);
        m.push(id(0), false, 3);
        m.clear(id(2));
        assert!(m.is_empty(id(2)));
        assert_eq!(m.ready(), [id(0)]);
        m.clear(id(1)); // clearing an empty box is a no-op
        check_ready(&m);
        // Cleared nodes are reused before the slab grows.
        m.push(id(1), false, 4);
        m.push(id(1), false, 5);
        assert_eq!(m.slab_len(), 3);
        assert_eq!(m.iter(id(1), false).copied().collect::<Vec<_>>(), [4, 5]);
    }

    #[test]
    fn slab_grows_only_to_peak_in_flight() {
        let mut m = Mailboxes::with_len(8);
        for round in 0..100u32 {
            for k in 0..8 {
                m.push(id(k), round % 2 == 0, round);
            }
            for k in 0..8 {
                assert_eq!(m.pop(id(k)), Some(round));
            }
        }
        assert_eq!(m.slab_len(), 8);
        // A deeper burst raises the peak once, then stays there.
        for _ in 0..3 {
            for v in 0..20 {
                m.push(id(v % 3), false, v);
            }
            while let Some(&i) = m.ready().first() {
                m.pop(i);
            }
        }
        assert_eq!(m.slab_len(), 20);
    }

    #[test]
    fn every_value_is_dropped_exactly_once() {
        use std::rc::Rc;
        let token = Rc::new(());
        {
            let mut m = Mailboxes::with_len(3);
            for k in 0..30u32 {
                m.push(id(k % 3), k % 2 == 0, Rc::clone(&token));
            }
            // 30 queued: pop 5, remove 3 from the middle, clear one box
            // (10 values), and leave the rest to the mailboxes' drop.
            for _ in 0..5 {
                drop(m.pop(id(0)));
            }
            for _ in 0..3 {
                drop(m.remove_at(id(1), 4));
            }
            m.clear(id(2));
            assert_eq!(Rc::strong_count(&token), 1 + 30 - 5 - 3 - 10);
            // Reused nodes take fresh values without dropping stale ones.
            for _ in 0..4 {
                m.push(id(2), false, Rc::clone(&token));
            }
            assert_eq!(Rc::strong_count(&token), 1 + 16);
            assert_eq!(m.iter(id(2), false).count(), 4);
        }
        assert_eq!(Rc::strong_count(&token), 1);
    }

    #[test]
    fn ready_list_tracks_non_empty_boxes_in_order() {
        let mut m = Mailboxes::with_len(4);
        let mut rng = crate::sched::SplitMix64::new(5);
        for step in 0..2000u32 {
            let i = id(rng.below(6) as u32);
            m.grow_to(i.index() + 1);
            match rng.below(4) {
                0 | 1 => m.push(i, rng.below(2) == 0, step),
                2 => {
                    let n = m.len(i);
                    if n > 0 {
                        assert!(m.remove_at(i, rng.below(n)).is_some());
                    }
                }
                _ => {
                    if rng.below(8) == 0 {
                        m.clear(i);
                    } else {
                        m.pop(i);
                    }
                }
            }
            check_ready(&m);
        }
        assert_eq!(m.id_space(), 6);
    }
}
