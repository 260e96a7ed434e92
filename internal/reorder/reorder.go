// Package reorder is the sink's reordering service (§IV-C, Figure 8):
// results arrive in whatever order the swarm finishes them and are
// played back in source sequence order, with a bounded wait for the
// missing ones. The simulator's sink and the live master's sink both
// play through one Ring.
package reorder

// Ring buffers out-of-order arrivals and releases them in sequence order.
//
// The rule: an arrival whose seq is at or past the next seq to play is
// buffered (a repeat arrival for a buffered seq replaces it without
// counting twice); an arrival behind it is late and dropped. Arrive
// hands back the value it displaced or refused, so a caller whose values
// own memory can free it: every value offered ends up played, handed
// back by Arrive or Reset, or still buffered. The next
// seq plays as soon as it is buffered. When the buffered count reaches
// the cap, playback gives up on the missing seqs and skips to the lowest
// buffered one.
//
// Slots are a power-of-two ring indexed by seq & mask, so arrive and
// play are O(1); a skip scans forward from the next seq, and each slot
// is passed once. The ring doubles when an arrival lands beyond it, so
// its size follows the disorder span, not the cap. Callers must bound
// the seqs they pass: one arrival far ahead of playback grows the ring
// to cover the gap.
type Ring[T any] struct {
	slots   []slot[T]
	mask    uint64
	next    uint64 // the next seq to play
	n       int    // buffered count
	limit   int    // buffered count that triggers a skip
	skipped int64  // seqs given up on
}

type slot[T any] struct {
	v    T
	full bool
}

// minSlots is a new ring's size; it doubles on demand.
const minSlots = 16

// New returns an empty ring that plays from seq 0 and skips once limit
// arrivals are buffered. A limit below 1 is raised to 1.
func New[T any](limit int) *Ring[T] {
	if limit < 1 {
		limit = 1
	}
	return &Ring[T]{slots: make([]slot[T], minSlots), mask: minSlots - 1, limit: limit}
}

// Arrive buffers v at seq, unless seq was already played or skipped.
// When ok, out is the value that will never play: v itself if seq was
// late, or the earlier value at seq that v replaced.
func (r *Ring[T]) Arrive(seq uint64, v T) (out T, ok bool) {
	if seq < r.next {
		return v, true
	}
	if seq-r.next > r.mask {
		r.grow(seq - r.next + 1)
	}
	s := &r.slots[seq&r.mask]
	out, ok = s.v, s.full
	if !s.full {
		s.full = true
		r.n++
	}
	s.v = v
	return out, ok
}

// Play releases the next value in sequence order, first skipping to the
// lowest buffered seq if the ring holds limit values and the next seq is
// missing. ok is false when nothing can play yet.
func (r *Ring[T]) Play() (seq uint64, v T, ok bool) {
	s := &r.slots[r.next&r.mask]
	if !s.full {
		if r.n < r.limit {
			return 0, v, false
		}
		// Every buffered seq lies in [next, next+len(slots)), so the
		// scan ends inside the ring.
		from := r.next
		for s = &r.slots[r.next&r.mask]; !s.full; s = &r.slots[r.next&r.mask] {
			r.next++
		}
		r.skipped += int64(r.next - from)
	}
	seq, v = r.next, s.v
	// Clear the slot so a played value no longer pins what it references.
	*s = slot[T]{}
	r.n--
	r.next++
	return seq, v, true
}

// grow doubles the ring until it holds span seqs from next.
func (r *Ring[T]) grow(span uint64) {
	size := uint64(len(r.slots))
	for size < span {
		size *= 2
	}
	slots := make([]slot[T], size)
	mask := size - 1
	for i := uint64(0); i <= r.mask; i++ {
		if s := r.slots[(r.next+i)&r.mask]; s.full {
			slots[(r.next+i)&mask] = s
		}
	}
	r.slots, r.mask = slots, mask
}

// Reset empties the ring, handing each buffered value to discard (if
// not nil), and resumes playback at next with skipped seqs already given
// up on, as restored from a checkpoint.
func (r *Ring[T]) Reset(next uint64, skipped int64, discard func(T)) {
	for _, s := range r.slots {
		if s.full && discard != nil {
			discard(s.v)
		}
	}
	clear(r.slots)
	r.next, r.n, r.skipped = next, 0, skipped
}

// Next returns the next seq to play.
func (r *Ring[T]) Next() uint64 { return r.next }

// Len returns the number of buffered values.
func (r *Ring[T]) Len() int { return r.n }

// Cap returns the buffered count at which playback skips ahead.
func (r *Ring[T]) Cap() int { return r.limit }

// Skipped returns how many seqs playback has given up on.
func (r *Ring[T]) Skipped() int64 { return r.skipped }
