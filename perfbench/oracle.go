package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"sharedq/internal/pages"
)

// reference is the expected result of one distinct query, computed
// before timing starts by the sequential Baseline path. Results are
// compared as multisets of rows: queries without ORDER BY may return
// rows in any order, and ORDER BY ties may be broken either way.
//
// A result without float cells is held as an order-independent
// fingerprint, so a streamed result is checked row by row without
// being stored. A result with floats keeps its sorted rows, because
// floats compare within a relative 1e-9 (the accumulation-order
// rounding bound the parity suites use) and cannot be hashed.
type reference struct {
	rows   int
	floats bool
	fp     fingerprint
	sorted []pages.Row // floats only
}

// fingerprint is a multiset hash: the sums of two independent row
// hashes, so row order does not matter and a changed, missing or extra
// row changes it.
type fingerprint struct{ a, b uint64 }

func newReference(rows []pages.Row) *reference {
	ref := &reference{rows: len(rows)}
	for _, r := range rows {
		for _, v := range r {
			if v.Kind == pages.KindFloat {
				ref.floats = true
			}
		}
	}
	if ref.floats {
		ref.sorted = append([]pages.Row(nil), rows...)
		sortRows(ref.sorted)
		return ref
	}
	for _, r := range rows {
		ref.fp.add(r)
	}
	return ref
}

func (f *fingerprint) add(r pages.Row) {
	h := uint64(14695981039346656037)
	mix := func(x uint64) {
		h ^= x
		h *= 1099511628211
	}
	for _, v := range r {
		mix(uint64(v.Kind))
		switch v.Kind {
		case pages.KindInt:
			mix(uint64(v.I))
		case pages.KindFloat:
			mix(math.Float64bits(v.F))
		default:
			for i := 0; i < len(v.S); i++ {
				mix(uint64(v.S[i]))
			}
			mix(uint64(len(v.S)))
		}
	}
	f.a += splitmix(h)
	f.b += splitmix(h ^ 0x9e3779b97f4a7c15)
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// checker accumulates one streamed result for comparison against ref.
type checker struct {
	ref  *reference
	rows int
	fp   fingerprint
	kept []pages.Row
}

func (ref *reference) checker() checker { return checker{ref: ref} }

func (c *checker) add(r pages.Row) {
	c.rows++
	if c.ref.floats {
		c.kept = append(c.kept, r)
		return
	}
	c.fp.add(r)
}

// verify reports whether the accumulated result matches the reference.
func (c *checker) verify() error {
	if c.rows != c.ref.rows {
		return fmt.Errorf("result has %d rows, reference %d", c.rows, c.ref.rows)
	}
	if !c.ref.floats {
		if c.fp != c.ref.fp {
			return fmt.Errorf("result rows differ from the reference (%d rows)", c.rows)
		}
		return nil
	}
	sortRows(c.kept)
	for i, r := range c.kept {
		if !rowApproxEqual(r, c.ref.sorted[i]) {
			return fmt.Errorf("result row %v differs from reference row %v", r, c.ref.sorted[i])
		}
	}
	return nil
}

// sortRows orders rows by their exact (non-float) cells first, then
// by floats, so near-equal floats cannot reorder rows whose keys
// differ.
func sortRows(rows []pages.Row) {
	sort.Slice(rows, func(i, j int) bool {
		if c := compareRows(rows[i], rows[j], false); c != 0 {
			return c < 0
		}
		return compareRows(rows[i], rows[j], true) < 0
	})
}

func compareRows(a, b pages.Row, floats bool) int {
	for k := 0; k < len(a) && k < len(b); k++ {
		x, y := a[k], b[k]
		if x.Kind != y.Kind {
			return int(x.Kind) - int(y.Kind)
		}
		switch {
		case x.Kind == pages.KindFloat:
			if floats && x.F != y.F {
				if x.F < y.F {
					return -1
				}
				return 1
			}
		case x.Kind == pages.KindInt:
			if x.I != y.I {
				if x.I < y.I {
					return -1
				}
				return 1
			}
		default:
			if c := strings.Compare(x.S, y.S); c != 0 {
				return c
			}
		}
	}
	return len(a) - len(b)
}

func rowApproxEqual(got, want pages.Row) bool {
	if len(got) != len(want) {
		return false
	}
	for c := range got {
		g, w := got[c], want[c]
		if g.Kind != w.Kind {
			return false
		}
		switch g.Kind {
		case pages.KindFloat:
			scale := math.Max(math.Abs(w.F), 1)
			if math.Abs(g.F-w.F) > 1e-9*scale {
				return false
			}
		case pages.KindInt:
			if g.I != w.I {
				return false
			}
		default:
			if g.S != w.S {
				return false
			}
		}
	}
	return true
}
