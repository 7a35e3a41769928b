package comm

import (
	"reflect"
	"slices"
	"testing"
)

// bruteArc simulates one circular pass over [lo, hi) page by page: a
// reader enters at page entry, the scanner shows it shown pages, and
// the pages the scanner would still emit before wrapping back to entry
// are the reader's unseen remainder. It returns the scanner position
// after the shown pages (the arc's From) and that remainder.
func bruteArc(lo, hi, entry, shown int) (pos int, rest []int) {
	pos = entry
	step := func() int {
		pg := pos
		if pos++; pos == hi {
			pos = lo
		}
		return pg
	}
	for i := 0; i < shown; i++ {
		step()
	}
	from := pos
	for i := shown; i < hi-lo; i++ {
		rest = append(rest, step())
	}
	return from, rest
}

// TestArcMatchesBruteForceWalk checks Arc against a page-by-page
// simulation of the circular scan, on the shapes the straggler
// continuations produce and then exhaustively over small ranges.
func TestArcMatchesBruteForceWalk(t *testing.T) {
	cases := []struct {
		name              string
		lo, hi, entry, sh int
		want              []int
	}{
		{"resume==entry, full table", 0, 5, 3, 0, []int{3, 4, 0, 1, 2}},
		{"wrap-around", 0, 6, 4, 1, []int{5, 0, 1, 2, 3}},
		{"partition sub-range", 4, 9, 6, 2, []int{8, 4, 5}},
		{"nothing seen, mid-range start", 3, 8, 5, 0, []int{5, 6, 7, 3, 4}},
		{"completed window", 2, 6, 3, 4, nil},
	}
	check := func(t *testing.T, lo, hi, entry, shown int) []int {
		t.Helper()
		from, rest := bruteArc(lo, hi, entry, shown)
		a := Arc{Lo: lo, Hi: hi, From: from, To: entry, Full: shown == 0}
		if got := slices.Collect(a.Pages()); !reflect.DeepEqual(got, rest) {
			t.Fatalf("%+v: Pages = %v, brute force %v", a, got, rest)
		}
		if a.Len() != len(rest) {
			t.Fatalf("%+v: Len = %d, want %d", a, a.Len(), len(rest))
		}
		return rest
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if rest := check(t, c.lo, c.hi, c.entry, c.sh); !reflect.DeepEqual(rest, c.want) {
				t.Fatalf("unseen pages = %v, want %v", rest, c.want)
			}
		})
	}
	t.Run("exhaustive", func(t *testing.T) {
		for lo := 0; lo < 3; lo++ {
			for hi := lo + 1; hi < lo+6; hi++ {
				for entry := lo; entry < hi; entry++ {
					for shown := 0; shown <= hi-lo; shown++ {
						check(t, lo, hi, entry, shown)
					}
				}
			}
		}
	})
	if n := (Arc{Lo: 4, Hi: 4, Full: true}).Len(); n != 0 {
		t.Errorf("empty range Len = %d", n)
	}
}
