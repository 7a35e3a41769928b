package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sharedq/internal/core"
	"sharedq/internal/plan"
	"sharedq/internal/serve"
)

// queryDeadline bounds every query, from its due time to its verdict.
// A miss counts as a failure.
const queryDeadline = 5 * time.Second

// sloLimit is the latency limit the ladder holds p99 to.
const sloLimit = 500 * time.Millisecond

var errDeadline = errors.New("query missed its deadline")

// wrongResult marks a query whose rows differ from the reference.
type wrongResult struct{ err error }

func (w *wrongResult) Error() string { return "wrong result: " + w.err.Error() }

// query is one distinct query and its reference result.
type query struct {
	sql       string
	ref       *reference
	streaming bool
}

// client runs one query at a time through a layer's public API and
// checks the rows it receives against the reference. It returns when
// the first row (or the end of an empty result) arrived.
type client interface {
	run(ctx context.Context, q *query, tr *tracer, root, qid int32) (first time.Time, rows int, err error)
}

// inproc calls the engine directly: plan.Build, then
// Engine.StreamSubmit and Rows.Next. It is safe for concurrent use.
type inproc struct{ eng *core.Engine }

func (x inproc) run(ctx context.Context, q *query, tr *tracer, root, qid int32) (time.Time, int, error) {
	h := tr.begin(spPlan, root, qid)
	pq, err := plan.Build(x.eng.System().Cat, q.sql)
	tr.end(h)
	if err != nil {
		return time.Time{}, 0, err
	}
	fr := tr.begin(spFirstRow, root, qid)
	h = tr.begin(spSubmit, fr, qid)
	rows, err := x.eng.StreamSubmit(ctx, pq)
	tr.end(h)
	if err != nil {
		tr.end(fr)
		return time.Time{}, 0, err
	}
	chk := q.ref.checker()
	more := rows.Next()
	first := time.Now()
	tr.end(fr)
	h = tr.begin(spDrain, root, qid)
	for ; more; more = rows.Next() {
		chk.add(rows.Row())
	}
	tr.end(h)
	err = rows.Err()
	if cerr := rows.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return first, chk.rows, err
	}
	return first, chk.rows, verify(&chk, tr, root, qid)
}

func verify(chk *checker, tr *tracer, root, qid int32) error {
	h := tr.begin(spCheck, root, qid)
	err := chk.verify()
	tr.end(h)
	if err != nil {
		return &wrongResult{err}
	}
	return nil
}

// remote sends SQL over one serve.Client connection: Client.Query,
// then RowStream.Next. One query at a time per connection.
type remote struct {
	addr string
	c    *serve.Client
}

func (x *remote) run(ctx context.Context, q *query, tr *tracer, root, qid int32) (time.Time, int, error) {
	if x.c == nil {
		c, err := serve.Dial(x.addr)
		if err != nil {
			return time.Time{}, 0, err
		}
		x.c = c
	}
	fr := tr.begin(spFirstRow, root, qid)
	h := tr.begin(spServe, fr, qid)
	rs, err := x.c.Query("bench", q.sql)
	tr.end(h)
	if err != nil {
		tr.end(fr)
		x.dropOnTransportError(err)
		return time.Time{}, 0, err
	}
	chk := q.ref.checker()
	more := rs.Next()
	first := time.Now()
	tr.end(fr)
	h = tr.begin(spDrain, root, qid)
	for ; more; more = rs.Next() {
		chk.add(rs.Row())
	}
	tr.end(h)
	if err := rs.Err(); err != nil {
		x.dropOnTransportError(err)
		return first, chk.rows, err
	}
	return first, chk.rows, verify(&chk, tr, root, qid)
}

// dropOnTransportError discards the connection after an error that
// may have left the stream mid-frame; a typed server error leaves it
// usable.
func (x *remote) dropOnTransportError(err error) {
	var re *serve.RemoteError
	if !errors.As(err, &re) {
		x.close()
	}
}

func (x *remote) close() {
	if x.c != nil {
		x.c.Close()
		x.c = nil
	}
}

// outcome is one query as its client saw it. Latencies are in ms from
// the due time; a failed query has +Inf latency.
type outcome struct {
	due       time.Time
	lat, ttfr float64
	rows      int
	streaming bool
	err       error
}

func (o outcome) failed() bool { return o.err != nil }

func (o outcome) wrong() bool {
	var w *wrongResult
	return errors.As(o.err, &w)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// progress is shared with the watchdog: it fails the run when queries
// are in flight but none has completed for a while.
type progress struct {
	done     atomic.Int64
	inflight atomic.Int64
	qid      atomic.Int32
}

// runOne runs query q, due at due, to its verdict.
func runOne(ctx context.Context, c client, q *query, due time.Time, tr *tracer, prog *progress) outcome {
	prog.inflight.Add(1)
	defer func() {
		prog.inflight.Add(-1)
		prog.done.Add(1)
	}()
	qid := prog.qid.Add(1)
	root := tr.begin(spQuery, -1, qid)
	qctx, cancel := context.WithDeadline(ctx, due.Add(queryDeadline))
	first, rows, err := c.run(qctx, q, tr, root, qid)
	cancel()
	end := time.Now()
	tr.end(root)
	if err == nil && end.Sub(due) > queryDeadline {
		err = errDeadline
	}
	o := outcome{due: due, lat: ms(end.Sub(due)), ttfr: ms(first.Sub(due)), rows: rows, streaming: q.streaming, err: err}
	if err != nil {
		o.lat, o.ttfr = math.Inf(1), math.Inf(1)
	}
	return o
}

// phase is the result of one measured stretch of load.
type phase struct {
	outs        []outcome
	clock       *cpuClock // window boundaries and the CPU time at each
	elapsed     time.Duration
	lateMax     time.Duration // open loop: worst dispatch delay
	inflightEnd int64         // queries still running when the phase's time was up
}

// closedLoop runs one goroutine per client, each sending its next
// query when the previous one finished, until dur has passed; then it
// waits for the queries in flight.
func closedLoop(ctx context.Context, clients []client, w *workload, pool []*query, seed int64, dur time.Duration, tr *tracer, prog *progress) phase {
	clock := startCPUClock(w.window)
	t0 := time.Now()
	stop := t0.Add(dur)
	per := make([][]outcome, len(clients))
	var wg sync.WaitGroup
	var inflightEnd atomic.Int64
	sample := time.AfterFunc(dur, func() { inflightEnd.Store(prog.inflight.Load()) })
	defer sample.Stop()
	for ci, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*7919 + int64(ci)))
			for i := 0; ; i++ {
				if time.Now().After(stop) {
					return
				}
				q := pool[w.pick(rng, i, len(pool))]
				per[ci] = append(per[ci], runOne(ctx, c, q, time.Now(), tr, prog))
			}
		}()
	}
	wg.Wait()
	clock.stop()
	var outs []outcome
	for _, o := range per {
		outs = append(outs, o...)
	}
	return phase{outs: outs, clock: clock, elapsed: time.Since(t0), inflightEnd: inflightEnd.Load()}
}

// arrival is one precomputed open-loop send: its offset from the phase
// start and the pool index of its query.
type arrival struct {
	at    time.Duration
	query int
}

// schedule precomputes an open-loop arrival schedule: round(rate·dur)
// arrivals at sorted uniformly random offsets in [0, dur), which is a
// Poisson process conditioned on its arrival count. Fixing the count
// keeps the offered load of a run from varying with the seed by the
// Poisson count's own noise (±1/√n).
func schedule(rng *rand.Rand, rate float64, dur time.Duration, w *workload, poolLen int) []arrival {
	n := int(math.Round(rate * dur.Seconds()))
	out := make([]arrival, n)
	for i := range out {
		out[i].at = time.Duration(rng.Float64() * float64(dur))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].at < out[j].at })
	for i := range out {
		out[i].query = w.pick(rng, i, poolLen)
	}
	return out
}

// openLoop sends each arrival at its due time whether or not earlier
// queries finished, times every query from its due time, and waits for
// all of them once dur has passed.
func openLoop(ctx context.Context, c client, w *workload, pool []*query, arr []arrival, dur time.Duration, tr *tracer, prog *progress) phase {
	clock := startCPUClock(w.window)
	t0 := time.Now()
	outs := make([]outcome, len(arr))
	var wg sync.WaitGroup
	var lateMax time.Duration
	for i, a := range arr {
		due := t0.Add(a.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if late := time.Since(due); late > lateMax {
			lateMax = late
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i] = runOne(ctx, c, pool[a.query], due, tr, prog)
		}()
	}
	if d := time.Until(t0.Add(dur)); d > 0 {
		time.Sleep(d)
	}
	inflightEnd := prog.inflight.Load()
	wg.Wait()
	clock.stop()
	// Elapsed runs to the last completion, so an open loop's rate
	// reflects how the system kept up, not only the offered load.
	return phase{outs: outs, clock: clock, elapsed: max(dur, time.Since(t0)), lateMax: lateMax, inflightEnd: inflightEnd}
}

// ladderStep is one rate of the SLO ladder.
type ladderStep struct {
	rate, p99   float64
	inflightEnd int64
	pass        bool
}

func (s ladderStep) String() string {
	return fmt.Sprintf("rate %.1f q/s: p99 %.1f ms, in flight at end %d, pass %v", s.rate, s.p99, s.inflightEnd, s.pass)
}

// evaluate judges one open-loop step against the limit: p99 at most
// sloLimit, and a backlog at the step's end no larger than the
// arrivals of one limit's span.
func evaluate(rate float64, ph phase) ladderStep {
	lats := make([]float64, len(ph.outs))
	for i, o := range ph.outs {
		lats[i] = o.lat
	}
	s := ladderStep{rate: rate, p99: quantile(lats, 0.99), inflightEnd: ph.inflightEnd}
	s.pass = s.p99 <= ms(sloLimit) && float64(s.inflightEnd) <= rate*sloLimit.Seconds()
	return s
}

// ladder continues from a first step already run at the workload's
// rate, raising the open-loop rate in 10% steps of stepDur until a rate
// misses the limit twice in a row or budget runs out. It returns the highest
// sustainable rate, interpolated linearly in p99 between the last
// passing and the first failing step, every step, and the outcomes of
// the steps it ran.
func ladder(ctx context.Context, c client, w *workload, pool []*query, rng *rand.Rand, first ladderStep, stepDur, budget time.Duration, tr *tracer, prog *progress) (float64, []ladderStep, []outcome) {
	var steps []ladderStep
	var all []outcome
	// A one-second step's p99 is about its slowest query, and one slow
	// query does not make a rate unsustainable: a failing rate, the
	// first one included, is run once more before the ladder ends.
	rate, retry := first.rate, true
	if first.pass {
		steps = append(steps, first)
		rate, retry = first.rate*1.1, false
	}
	for t0 := time.Now(); time.Since(t0)+stepDur <= budget; {
		ph := openLoop(ctx, c, w, pool, schedule(rng, rate, stepDur, w, len(pool)), stepDur, tr, prog)
		all = append(all, ph.outs...)
		s := evaluate(rate, ph)
		if !s.pass && !retry {
			retry = true
			continue
		}
		steps = append(steps, s)
		if !s.pass {
			break
		}
		rate, retry = rate*1.1, false
	}
	if len(steps) == 0 {
		steps = append(steps, first) // no time for the retry
	}
	limit := ms(sloLimit)
	n := len(steps)
	switch {
	case steps[n-1].pass:
		return steps[n-1].rate, steps, all // the budget ran out first
	case n == 1:
		// Even the first rate misses: scale it by how far p99 overshot.
		return first.rate * math.Min(1, limit/steps[0].p99), steps, all
	}
	lo, hi := steps[n-2], steps[n-1]
	if hi.p99 <= limit || math.IsInf(hi.p99, 1) {
		return lo.rate, steps, all
	}
	return lo.rate + (hi.rate-lo.rate)*(limit-lo.p99)/(hi.p99-lo.p99), steps, all
}
