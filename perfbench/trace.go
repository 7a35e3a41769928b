package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// spanName identifies the layer boundary a span was recorded around.
// Every span is recorded by the benchmark's own code, around its calls
// into a layer's public functions; nothing inside the engine is traced.
type spanName uint8

const (
	spQuery    spanName = iota // one query, due/submit time to verdict
	spPlan                     // plan.Build
	spFirstRow                 // submit call through the first row
	spSubmit                   // core.Engine.StreamSubmit
	spServe                    // serve.Client.Query: send, wait for the first frame
	spDrain                    // Rows.Next / RowStream.Next after the first row
	spCheck                    // oracle verdict
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"query", "plan.Build", "first_row", "core.StreamSubmit",
	"serve.Query", "drain", "oracle.check",
}

func (n spanName) String() string { return spanNames[n] }

// span is one fixed-size trace record. Times are nanoseconds since the
// tracer's epoch; parent is the index of the enclosing span, -1 for a
// root.
type span struct {
	start, end int64
	parent     int32
	qid        int32
	name       spanName
}

// tracer records spans into a preallocated array: begin claims a slot
// with one atomic add and no allocation. A nil *tracer records nothing,
// which is how the untraced runs call the same code. Spans past the
// capacity are counted, not recorded.
type tracer struct {
	epoch   time.Time
	spans   []span
	n       atomic.Int64
	dropped atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, capacity)}
}

// begin opens a span and returns its handle for end (-1 when nothing
// was recorded).
func (t *tracer) begin(name spanName, parent, qid int32) int32 {
	if t == nil {
		return -1
	}
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return -1
	}
	t.spans[i] = span{start: int64(time.Since(t.epoch)), end: -1, parent: parent, qid: qid, name: name}
	return int32(i)
}

// end closes the span begun with handle i. Only the goroutine that
// began a span ends it.
func (t *tracer) end(i int32) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].end = int64(time.Since(t.epoch))
}

// recorded returns the closed spans. Call it only after every
// recording goroutine has finished.
func (t *tracer) recorded() []span {
	n := t.n.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// write dumps the spans as tab-separated text, one span a line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "index\tqid\tname\tparent\tstart_ns\tend_ns")
	for i, s := range t.recorded() {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%d\n", i, s.qid, s.name, s.parent, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its direct children cover (overlapping children count
// once, and a child's time outside its parent does not count). Unclosed
// spans have zero duration.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	var iv [][2]int64
	for i, s := range spans {
		if s.end < s.start {
			continue
		}
		iv = iv[:0]
		for _, c := range children[int32(i)] {
			cs := spans[c]
			lo, hi := max(cs.start, s.start), min(cs.end, s.end)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, curLo, curHi int64
		curHi = -1
		for _, v := range iv {
			if v[0] > curHi {
				if curHi > curLo {
					covered += curHi - curLo
				}
				curLo, curHi = v[0], v[1]
			} else if v[1] > curHi {
				curHi = v[1]
			}
		}
		if curHi > curLo {
			covered += curHi - curLo
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// durations collects the durations (ns) of the closed spans named n.
func durations(spans []span, n spanName) []float64 {
	var out []float64
	for _, s := range spans {
		if s.name == n && s.end >= s.start {
			out = append(out, float64(s.end-s.start))
		}
	}
	return out
}
