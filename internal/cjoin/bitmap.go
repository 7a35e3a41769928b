// Package cjoin implements the CJOIN operator: a Global Query Plan that
// evaluates the joins of all concurrent star queries with one shared
// pipeline (Candea et al., VLDB 2009/2011; §2.5 and §3.2 of the paper
// reproduced here).
//
// The pipeline is: a preprocessor running a circular scan of the fact
// table and annotating each fact tuple with a bitmap (one bit per
// admitted query); a chain of filters, one per referenced dimension —
// each a shared selection plus a shared hash join whose hash table maps
// dimension keys to (dimension row, bitmap of queries selecting it);
// and a distributor with several distributor parts that route joined
// tuples to the relevant queries' output buffers. New queries are
// admitted in batches (§3.2). An admission pauses only the filter chain
// while it updates the shared hash tables; it never drains the
// pipeline. A finished query's bit is reused only once no in-flight
// tuple carries it, and a new bit is zero in every older tuple, which
// FilterAnd keeps at zero.
package cjoin

// Bitmap is a variable-width bit set, one bit per admitted query.
// Widths are allowed to differ between bitmaps: missing high words read
// as zero. A fact tuple's bitmap is as wide as the active-query mask at
// the moment the preprocessor emitted it — bits of queries admitted
// later are irrelevant to that tuple by construction.
type Bitmap []uint64

// NewBitmap returns a bitmap able to hold bits [0, nbits).
func NewBitmap(nbits int) Bitmap {
	return make(Bitmap, (nbits+63)/64)
}

// Set sets bit i, growing the bitmap as needed, and returns the
// (possibly reallocated) bitmap.
func (b Bitmap) Set(i int) Bitmap {
	w := i / 64
	for len(b) <= w {
		b = append(b, 0)
	}
	b[w] |= 1 << (i % 64)
	return b
}

// Clear clears bit i (no-op when out of range).
func (b Bitmap) Clear(i int) {
	w := i / 64
	if w < len(b) {
		b[w] &^= 1 << (i % 64)
	}
}

// Test reports whether bit i is set.
func (b Bitmap) Test(i int) bool {
	w := i / 64
	return w < len(b) && b[w]&(1<<(i%64)) != 0
}

// Any reports whether any bit is set.
func (b Bitmap) Any() bool {
	for _, w := range b {
		if w != 0 {
			return true
		}
	}
	return false
}

// Clone returns a copy of b.
func (b Bitmap) Clone() Bitmap {
	c := make(Bitmap, len(b))
	copy(c, b)
	return c
}

// FilterAnd applies one shared-join filter step in place:
//
//	b &= (sel | ^ref)
//
// where sel is the bitmap of queries whose predicate selects the
// matched dimension row (zero when no row matched) and ref is the
// bitmap of queries referencing the dimension. Queries that do not
// reference the dimension pass through unchanged; referencing queries
// keep their bit only if the dimension row is selected for them.
// It reports whether any bit remains set.
func (b Bitmap) FilterAnd(sel, ref Bitmap) bool {
	any := false
	for i := range b {
		var s, r uint64
		if i < len(sel) {
			s = sel[i]
		}
		if i < len(ref) {
			r = ref[i]
		}
		b[i] &= s | ^r
		if b[i] != 0 {
			any = true
		}
	}
	return any
}

// Count returns the number of set bits.
func (b Bitmap) Count() int {
	n := 0
	for _, w := range b {
		for w != 0 {
			w &= w - 1
			n++
		}
	}
	return n
}
