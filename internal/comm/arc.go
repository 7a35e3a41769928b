package comm

import "iter"

// Arc is the unseen remainder of one circular pass over the page range
// [Lo, Hi): pages From, From+1, ... up to but excluding To, wrapping
// from Hi-1 back to Lo. A reader that entered the pass at page To and
// has been shown every page before From has exactly these pages left.
// From == To alone is ambiguous — the reader has been shown nothing or
// everything — and Full settles it.
//
// Both straggler continuations replay their detached reader's unseen
// arc through it: the QPipe circular scan's private continuation and
// CJOIN's per-partition window retraction.
type Arc struct {
	Lo, Hi   int
	From, To int
	// Full makes From == To the whole range rather than nothing.
	Full bool
}

// Len returns the number of pages in the arc.
func (a Arc) Len() int {
	n := a.Hi - a.Lo
	if n <= 0 {
		return 0
	}
	k := ((a.To-a.From)%n + n) % n
	if k == 0 && a.Full {
		k = n
	}
	return k
}

// Pages yields the arc's page indexes in circular-scan order.
func (a Arc) Pages() iter.Seq[int] {
	return func(yield func(int) bool) {
		pg := a.From
		for k := a.Len(); k > 0; k-- {
			if !yield(pg) {
				return
			}
			if pg++; pg == a.Hi {
				pg = a.Lo
			}
		}
	}
}
