package main

import (
	"path/filepath"
	"testing"
)

// TestSelfTimeNested checks the self-time arithmetic on a hand-built
// tree: overlapping children count once, grandchildren are charged to
// their own parent only, and a child running past its parent's end is
// clipped.
func TestSelfTimeNested(t *testing.T) {
	spans := []span{
		{start: 0, end: 100, parent: -1},   // 0: root
		{start: 10, end: 30, parent: 0},    // 1: child
		{start: 20, end: 40, parent: 0},    // 2: child overlapping 1
		{start: 25, end: 35, parent: 2},    // 3: grandchild under 2
		{start: 90, end: 120, parent: 0},   // 4: child past the root's end
		{start: 50, end: 40, parent: 0},    // 5: unclosed: no duration, covers nothing
		{start: 200, end: 210, parent: -1}, // 6: second root, no children
	}
	want := []int64{
		100 - (30 + 10), // root minus [10,40) and [90,100)
		20,
		20 - 10,
		10,
		30,
		0,
		10,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self %d, want %d", i, got[i], want[i])
		}
	}
}

func TestTracerRecordsAndDrops(t *testing.T) {
	tr := newTracer(2)
	a := tr.begin(spQuery, -1, 7)
	b := tr.begin(spPlan, a, 7)
	c := tr.begin(spCheck, a, 7)
	tr.end(b)
	tr.end(a)
	tr.end(c) // dropped handle: a no-op
	if c != -1 || tr.dropped.Load() != 1 {
		t.Fatalf("third span: handle %d, dropped %d; want -1, 1", c, tr.dropped.Load())
	}
	sp := tr.recorded()
	if len(sp) != 2 || sp[1].parent != a || sp[1].qid != 7 || sp[0].end < sp[1].end {
		t.Fatalf("recorded %+v", sp)
	}
	if err := tr.write(filepath.Join(t.TempDir(), "spans.tsv")); err != nil {
		t.Fatal(err)
	}
	var nilTracer *tracer
	if h := nilTracer.begin(spQuery, -1, 0); h != -1 {
		t.Fatalf("nil tracer returned handle %d", h)
	}
	nilTracer.end(0)
}
