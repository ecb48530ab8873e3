//! Event labels stored flat: one string arena holding every label's
//! text, one span per event, and one open-addressing index from label
//! text to event id.
//!
//! A graph of `n` events keeps its labels in four allocations whatever
//! `n` is, so cloning or dropping it costs a few copies and frees rather
//! than one per label. The index hashes label text with a per-process
//! keyed hasher ([`RandomState`]): labels come from request text.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

use crate::event::{EventId, Label, Polarity};

/// Where one event's label sits in the arena.
#[derive(Clone, Copy, Debug)]
struct Span {
    start: u32,
    /// Length of the signal name (the display text is one byte longer
    /// when `polarity` is set).
    signal_len: u32,
    polarity: Option<Polarity>,
}

/// One index slot: an event id and the low 32 bits of its label's hash.
#[derive(Clone, Copy, Debug)]
struct Slot {
    id: u32,
    hash: u32,
}

/// An unused slot's id.
const EMPTY: u32 = u32::MAX;

const VACANT: Slot = Slot { id: EMPTY, hash: 0 };

/// The labels of a graph's events, by [`EventId`], and the index that
/// finds an event by its label text.
///
/// Every pushed label gets a span, but only the first event of a given
/// text is indexed; [`unindex`](Self::unindex) drops an event from the
/// index (its span stays, so ids never shift). The index probes
/// linearly in a power-of-two table kept at most three quarters full,
/// and deletes by shifting the rest of a probe run back.
#[derive(Clone, Debug)]
pub(crate) struct Labels<S = RandomState> {
    text: String,
    spans: Vec<Span>,
    slots: Vec<Slot>,
    indexed: usize,
    hasher: S,
}

/// Slots for `entries` indexed labels at no more than 3/4 load.
fn slots_for(entries: usize) -> usize {
    (entries + entries / 3 + 1).next_power_of_two().max(8)
}

impl Default for Labels {
    fn default() -> Self {
        Self::with_capacity(0, 0)
    }
}

impl Labels {
    /// Room for `events` labels of `bytes` bytes in total: no further
    /// allocation while both bounds hold.
    pub(crate) fn with_capacity(events: usize, bytes: usize) -> Self {
        Self::with_hasher(events, bytes, RandomState::new())
    }
}

impl<S: BuildHasher> Labels<S> {
    /// [`with_capacity`](Labels::with_capacity) hashing with `hasher`.
    pub(crate) fn with_hasher(events: usize, bytes: usize, hasher: S) -> Self {
        Labels {
            text: String::with_capacity(bytes),
            spans: Vec::with_capacity(events),
            slots: vec![VACANT; slots_for(events)],
            indexed: 0,
            hasher,
        }
    }

    /// The label of event `id`.
    ///
    /// # Panics
    ///
    /// Panics if no label was pushed for `id`.
    #[inline]
    pub(crate) fn get(&self, id: usize) -> Label<'_> {
        let span = self.spans[id];
        let start = span.start as usize;
        Label::new(
            &self.text[start..start + span.signal_len as usize],
            span.polarity,
        )
    }

    /// The display text of event `id`'s label.
    fn display(&self, id: u32) -> &str {
        let span = self.spans[id as usize];
        let start = span.start as usize;
        let len = span.signal_len as usize + usize::from(span.polarity.is_some());
        &self.text[start..start + len]
    }

    fn hash(&self, display: &str) -> u32 {
        self.hasher.hash_one(display) as u32
    }

    /// The slot holding `display`'s event (`Ok`), or the empty slot
    /// where it would go (`Err`).
    fn probe(&self, display: &str, hash: u32) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot.id == EMPTY {
                return Err(i);
            }
            if slot.hash == hash && self.display(slot.id) == display {
                return Ok(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// The indexed event whose label displays as `display`.
    pub(crate) fn find(&self, display: &str) -> Option<EventId> {
        let hash = self.hash(display);
        self.probe(display, hash)
            .ok()
            .map(|i| EventId(self.slots[i].id))
    }

    /// Appends `label` as the next event's and indexes it unless an
    /// indexed event already displays the same. Returns the new event's
    /// id and the indexed event of that text when there was one (a
    /// duplicate).
    pub(crate) fn push(&mut self, label: Label<'_>) -> (EventId, Option<EventId>) {
        let id = self.spans.len() as u32;
        let start = self.text.len();
        self.text.push_str(label.signal());
        match label.polarity() {
            Some(Polarity::Rise) => self.text.push('+'),
            Some(Polarity::Fall) => self.text.push('-'),
            None => {}
        }
        self.spans.push(Span {
            start: start as u32,
            signal_len: label.signal().len() as u32,
            polarity: label.polarity(),
        });
        let hash = self.hash(&self.text[start..]);
        match self.probe(&self.text[start..], hash) {
            Ok(i) => (EventId(id), Some(EventId(self.slots[i].id))),
            Err(i) => {
                self.slots[i] = Slot { id, hash };
                self.indexed += 1;
                if self.indexed > self.slots.len() / 4 * 3 {
                    self.grow();
                }
                (EventId(id), None)
            }
        }
    }

    /// The indexed event labelled `text`, pushing
    /// [`Label::lenient`]`(text)` as a new event when there is none.
    /// Returns the id and whether it is new.
    pub(crate) fn intern(&mut self, text: &str) -> (EventId, bool) {
        match self.find(text) {
            Some(id) => (id, false),
            None => (self.push(Label::lenient(text)).0, true),
        }
    }

    /// Doubles the index and re-places every entry by its stored hash.
    fn grow(&mut self) {
        let old = std::mem::replace(&mut self.slots, vec![VACANT; slots_for(self.indexed * 2)]);
        let mask = self.slots.len() - 1;
        for slot in old.into_iter().filter(|s| s.id != EMPTY) {
            let mut i = slot.hash as usize & mask;
            while self.slots[i].id != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = slot;
        }
    }

    /// Drops event `id` from the index if it is the indexed event of its
    /// label text, freeing that text for a later event.
    pub(crate) fn unindex(&mut self, id: EventId) {
        let display = self.display(id.0);
        let Ok(mut hole) = self.probe(display, self.hash(display)) else {
            return;
        };
        if self.slots[hole].id != id.0 {
            return;
        }
        // Backward-shift deletion: move each later entry of the probe
        // run into the hole unless the hole lies before its home slot.
        let mask = self.slots.len() - 1;
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let slot = self.slots[i];
            if slot.id == EMPTY {
                break;
            }
            let home = slot.hash as usize & mask;
            if (i.wrapping_sub(home) & mask) >= (i.wrapping_sub(hole) & mask) {
                self.slots[hole] = slot;
                hole = i;
            }
        }
        self.slots[hole] = VACANT;
        self.indexed -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::hash::{BuildHasherDefault, Hasher};

    /// A hasher that sends every key to the same slot, so each lookup
    /// walks the collision path.
    #[derive(Default)]
    struct Collide;

    impl Hasher for Collide {
        fn finish(&self) -> u64 {
            7
        }
        fn write(&mut self, _: &[u8]) {}
    }

    fn labels<S: BuildHasher>(hasher: S) -> Labels<S> {
        Labels::with_hasher(0, 0, hasher)
    }

    /// Pushes, removals and re-pushes against a `HashMap` model.
    fn exercise<S: BuildHasher>(mut l: Labels<S>) {
        let mut model: HashMap<String, EventId> = HashMap::new();
        let names: Vec<String> = (0..40)
            .map(|i| format!("s{}{}", i % 13, ["+", "-", ""][i % 3]))
            .collect();
        for (round, name) in names.iter().cycle().take(200).enumerate() {
            if round % 5 == 4 {
                if let Some(&id) = model.get(name) {
                    l.unindex(id);
                    model.remove(name);
                }
            } else {
                let (id, dup) = l.push(Label::lenient(name));
                assert_eq!(dup, model.get(name).copied(), "{name}");
                model.entry(name.clone()).or_insert(id);
            }
            for n in &names {
                assert_eq!(l.find(n), model.get(n).copied(), "round {round}: {n}");
            }
        }
        for (id, name) in l
            .spans
            .iter()
            .enumerate()
            .take(20)
            .map(|(i, _)| (i, l.get(i)))
        {
            assert_eq!(l.display(id as u32), name.to_string());
        }
    }

    #[test]
    fn index_agrees_with_a_hash_map() {
        exercise(labels(RandomState::new()));
    }

    #[test]
    fn colliding_hashes_still_find_every_label() {
        exercise(labels(BuildHasherDefault::<Collide>::default()));
    }

    #[test]
    fn intern_pushes_only_new_text() {
        let mut l = Labels::with_capacity(2, 4);
        let (a, new) = l.intern("a+");
        assert!(new);
        assert_eq!(l.intern("a+"), (a, false));
        let (b, new) = l.intern("a-");
        assert!(new && b != a);
        assert_eq!(l.get(b.index()).to_string(), "a-");
        assert_eq!(l.find("b+"), None);
    }
}
