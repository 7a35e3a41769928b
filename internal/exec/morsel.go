package exec

import (
	"context"
	"sync"
	"sync/atomic"

	"sharedq/internal/pages"
	"sharedq/internal/plan"
)

// Morsel-driven intra-query parallelism (after Leis et al.,
// "Morsel-Driven Parallelism") for the query-centric batch path: the
// fact table's page list is range-partitioned into per-worker claims;
// each worker takes morsels of a few pages off the front of its own
// claim and runs the whole scan → filter → probe → partial-aggregate
// pipeline on its own goroutine, with a worker-private pool shard
// (vec.Local) for batch checkouts and a worker-private Aggregator for
// partial state. A worker whose claim runs dry steals the back half of
// the largest remaining claim (steal-half, one CAS per steal), so one
// heavy page range or one descheduled worker no longer bounds the
// query's latency. A final merge step remaps each partial's dense
// group ids onto the main aggregator ordered by first-seen page, so a
// parallel execution — under any steal schedule — emits exactly the
// rows (and row order) of a sequential one. Non-aggregated queries
// bucket their projected rows per fact page and concatenate in page
// order, preserving table order the same way.

// MorselPages is the default number of fact pages per morsel (~128 KB
// of 32 KB pages): small enough to balance load across workers, large
// enough to amortize the claim CAS. Override per environment with
// Env.MorselPages.
const MorselPages = 4

// MorselSize resolves the environment's effective morsel size in fact
// pages (Env.MorselPages when positive, the MorselPages default
// otherwise).
func (e *Env) MorselSize() int {
	if e.MorselPages > 0 {
		return e.MorselPages
	}
	return MorselPages
}

// executeParallelism decides the worker count for q on env: the
// environment's parallelism, capped by the number of morsels, and
// forced to 1 when a float-order-sensitive aggregate (SUM/AVG over a
// float argument) would lose bit-reproducibility under parallel
// accumulation.
func executeParallelism(env *Env, q *plan.Query) int {
	w := env.Workers()
	if w <= 1 {
		return 1
	}
	mp := env.MorselSize()
	if nm := (q.Fact.NumPages + mp - 1) / mp; nm < 2 {
		return 1
	} else if w > nm {
		w = nm
	}
	for _, a := range q.Aggs {
		if a.OrderSensitive(q.JoinedSchema) {
			return 1
		}
	}
	return w
}

// pageClaim is one worker's unclaimed fact-page range, packed
// lo<<32|hi into a single atomic word so owners (taking morsels off
// the front) and thieves (halving the back) coordinate with plain CAS.
// Padded out to a cache line so per-worker claims don't false-share.
type pageClaim struct {
	r atomic.Uint64
	_ [7]uint64
}

func packClaim(lo, hi int) uint64       { return uint64(uint32(lo))<<32 | uint64(uint32(hi)) }
func unpackClaim(v uint64) (lo, hi int) { return int(uint32(v >> 32)), int(uint32(v)) }

// take claims up to n pages off the front of the range. ok is false
// when the range is empty.
func (c *pageClaim) take(n int) (lo, hi int, ok bool) {
	for {
		cur := c.r.Load()
		clo, chi := unpackClaim(cur)
		if clo >= chi {
			return 0, 0, false
		}
		nlo := clo + n
		if nlo > chi {
			nlo = chi
		}
		if c.r.CompareAndSwap(cur, packClaim(nlo, chi)) {
			return clo, nlo, true
		}
	}
}

// stealHalf removes the back half of the range (rounding down, so a
// single-page remainder stays with its owner). ok is false when there
// is nothing worth stealing.
func (c *pageClaim) stealHalf() (lo, hi int, ok bool) {
	for {
		cur := c.r.Load()
		clo, chi := unpackClaim(cur)
		n := (chi - clo) / 2
		if n == 0 {
			return 0, 0, false
		}
		if c.r.CompareAndSwap(cur, packClaim(clo, chi-n)) {
			return chi - n, chi, true
		}
	}
}

// remaining is a racy size estimate used only for victim selection.
func (c *pageClaim) remaining() int {
	lo, hi := unpackClaim(c.r.Load())
	return hi - lo
}

// stealInto refills claims[w] from the largest sibling claim,
// returning false when no claim holds two or more pages or the query
// is stopping. Each successful steal is one morsel_steals increment. A
// single-page remainder is never worth waiting for: its owner drains it
// within one take, or stop is set — so the thief exits instead of
// rescanning while the owner finishes (a rescan loop there starves the
// owners of CPU when queries outnumber cores).
func stealInto(env *Env, claims []pageClaim, w int, stop *atomic.Bool) bool {
	for {
		if stop.Load() {
			return false
		}
		victim, best := -1, 0
		for i := range claims {
			if i == w {
				continue
			}
			if n := claims[i].remaining(); n > best {
				victim, best = i, n
			}
		}
		if best < 2 {
			return false
		}
		if lo, hi, ok := claims[victim].stealHalf(); ok {
			claims[w].r.Store(packClaim(lo, hi))
			if env.Guard != nil && env.Guard.Counters != nil {
				env.Guard.Counters.Get("morsel_steals").Inc()
			}
			return true
		}
		// Lost the race: the victim drained or was stolen from first.
		// Rescan.
	}
}

// executeMorsels runs q's fact pipeline across workers goroutines.
// Callers guarantee workers >= 2. A worker whose Page fails (a read
// fault, a cancelled context, a panic) fails the query and sets the
// shared stop flag, which the other workers check before each morsel;
// every batch is released by Page, and the workers' pool shards drain
// back to the shared pool.
func executeMorsels(ctx context.Context, env *Env, q *plan.Query, p *FactPipeline, workers int) ([]pages.Row, error) {
	fact := q.Fact
	morselPages := env.MorselSize()
	aggs := make([]*Aggregator, workers)
	plains := make([][]pages.Row, fact.NumPages) // page -> projected rows, table order

	// Initial claims: one contiguous page range per worker. The ranges
	// are only a starting shape — steal-half redistributes them as soon
	// as any worker runs ahead.
	claims := make([]pageClaim, workers)
	chunk := (fact.NumPages + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if lo > fact.NumPages {
			lo = fact.NumPages
		}
		if hi > fact.NumPages {
			hi = fact.NumPages
		}
		claims[w].r.Store(packClaim(lo, hi))
	}

	var (
		stop  atomic.Bool
		errMu sync.Mutex
		first error
		wg    sync.WaitGroup
	)
	fail := func(err error) {
		errMu.Lock()
		if first == nil {
			first = err
		}
		errMu.Unlock()
		stop.Store(true)
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wenv := *env
			wenv.Local = env.Recycle.Local()
			// The worker releases everything it checks out, so at exit
			// the shard's free list holds its recycled batches; drain
			// them back to the shared pool for the next query.
			defer wenv.Local.Drain()
			// Page contains the panics of the pipeline; this backstop
			// covers the worker's own setup and claim bookkeeping.
			defer func() {
				if r := recover(); r != nil {
					fail(RecoverPanic(env, r))
				}
			}()
			// Each page's projection is one chunk, bucketed by page.
			var pg int
			sink := newResultSink(q, env.Col, func(rows []pages.Row) error {
				plains[pg] = rows
				return nil
			}, true)
			aggs[w] = sink.agg
			var s FactScratch
			for !stop.Load() {
				lo, hi, ok := claims[w].take(morselPages)
				if !ok {
					if !stealInto(env, claims, w, &stop) {
						return
					}
					continue
				}
				for pg = lo; pg < hi; pg++ {
					if sink.agg != nil {
						sink.agg.SetEpoch(int32(pg))
					}
					if err := p.Page(ctx, &wenv, pg, &s, sink.Batch); err != nil {
						fail(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if first != nil {
		return nil, first
	}

	var out []pages.Row
	if q.HasAgg {
		main := NewAggregator(q, env.Col)
		main.MergeFrom(aggs)
		out = main.Rows()
	} else {
		for _, p := range plains {
			out = append(out, p...)
		}
	}
	return SortRows(q, env.Col, out), nil
}
