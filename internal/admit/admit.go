// Package admit is sharedqd's sharing-aware admission controller: the
// front door between network clients and a core.Engine.
//
// It adds three things the engine's own overload valve
// (Options.MaxInFlight / MaxPoolBytes, PR 7) deliberately does not
// have:
//
//   - Per-tenant fairness. Waiters queue per tenant and are admitted by
//     weighted deficit round-robin, so a tenant flooding the server
//     delays itself, not its neighbours.
//
//   - Predictive shedding with typed backpressure. A submission that
//     cannot start soon — its tenant's queue is full, or the predicted
//     start delay (from the engine's observed service times and the
//     GQP marginal-cost model, core.GQPCost.Marginal) exceeds the
//     configured bound — is rejected *before the query starts* with
//     *ErrRetryAfter carrying a concrete resubmission delay
//     (core.PredictRetryAfter). Clients never hang on a saturated
//     server; they get told when to come back.
//
//   - Pass-aligned admission batching. In the CJOIN modes, admitting a
//     query pauses the filter chain (the paper's pipeline stall, §3.1);
//     admitting k queries in one pause costs one pause. The controller therefore
//     holds ready waiters briefly and releases them as a batch when a
//     circular-scan pass boundary fires (core.Engine.OnCircularPass) —
//     the moment admission windows naturally open — falling back to a
//     timer so alignment never adds more than MaxAlignWait of latency.
//
// The controller gates starting only. Callers bracket execution:
//
//	release, err := ctrl.Acquire(ctx, tenant)
//	if err != nil { /* typed backpressure, send retry-after */ }
//	defer release()
//	rows, err := eng.StreamSubmit(ctx, q)
//	...
package admit

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"sharedq/internal/core"
	"sharedq/internal/metrics"
)

// ErrRetryAfter is the typed backpressure verdict: the query was shed
// before it started and should be resubmitted after After. It tests
// true against core.ErrOverloaded with errors.Is, so callers that only
// distinguish "overloaded" from "failed" need no new case.
type ErrRetryAfter struct {
	// Tenant whose submission was shed.
	Tenant string
	// After is the predicted backlog drain time — resubmit after it.
	After time.Duration
	// Queued is the backlog (queued + executing) observed at shed time.
	Queued int
}

func (e *ErrRetryAfter) Error() string {
	return fmt.Sprintf("admit: tenant %q shed (backlog %d), retry after %v", e.Tenant, e.Queued, e.After)
}

// Is makes errors.Is(err, core.ErrOverloaded) true for shed verdicts.
func (e *ErrRetryAfter) Is(target error) bool { return target == core.ErrOverloaded }

// Config tunes a Controller.
type Config struct {
	// Engine is the engine being guarded. Required.
	Engine *core.Engine
	// Slots is the number of queries admitted concurrently across all
	// tenants. Default 2×GOMAXPROCS — enough concurrency to keep
	// sharing interesting, bounded enough that the queue (not the
	// engine) absorbs bursts.
	Slots int
	// MaxQueue is the per-tenant waiter cap; a submission past it is
	// shed with ErrRetryAfter. Default 64.
	MaxQueue int
	// MaxWait sheds a submission whose predicted start delay exceeds
	// it, even with queue space — the queue is for bursts, not for
	// hiding saturation. 0 disables predictive shedding (queue-depth
	// shedding still applies).
	MaxWait time.Duration
	// Weights assigns relative admission weights by tenant name;
	// unlisted tenants weigh 1.
	Weights map[string]int
	// AlignPasses batches admissions at CJOIN circular-pass boundaries.
	// Ignored (no-op) when the engine has no CJOIN stage.
	AlignPasses bool
	// MaxAlignWait bounds the alignment hold. Default 25ms.
	MaxAlignWait time.Duration
	// SeedService seeds the service-time estimate before any query has
	// completed. Default 5ms.
	SeedService time.Duration
}

func (cfg Config) withDefaults() Config {
	if cfg.Slots <= 0 {
		cfg.Slots = 2 * runtime.GOMAXPROCS(0)
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 64
	}
	if cfg.MaxAlignWait <= 0 {
		cfg.MaxAlignWait = 25 * time.Millisecond
	}
	if cfg.SeedService <= 0 {
		cfg.SeedService = 5 * time.Millisecond
	}
	return cfg
}

type waiter struct {
	ready chan error // buffered(1): admission verdict, nil = go
}

type tenant struct {
	name     string
	weight   int
	queue    []*waiter
	credit   int
	inflight int
}

// Controller is the admission front door. Create with New, close with
// Close (pending waiters fail with core.ErrClosed). All methods are
// safe for concurrent use.
type Controller struct {
	cfg   Config
	eng   *core.Engine
	stats *metrics.CounterSet

	mu       sync.Mutex
	tenants  map[string]*tenant
	order    []*tenant
	inflight int
	queued   int
	rr       int // round-robin cursor into order, persists across batches
	closed   bool
	svcEWMA  time.Duration // observed per-query service time
	marginal time.Duration // predicted cost of one more admission
	canAlign bool          // engine has a CJOIN stage

	wake chan struct{} // dispatcher nudge: new waiter or freed slot
	pass chan struct{} // circular-pass boundary fired
	done chan struct{}
	wg   sync.WaitGroup
}

// New builds and starts a controller over cfg.Engine.
func New(cfg Config) *Controller {
	cfg = cfg.withDefaults()
	c := &Controller{
		cfg:      cfg,
		eng:      cfg.Engine,
		stats:    metrics.NewCounterSet(),
		tenants:  make(map[string]*tenant),
		svcEWMA:  cfg.SeedService,
		marginal: cfg.SeedService,
		wake:     make(chan struct{}, 1),
		pass:     make(chan struct{}, 1),
		done:     make(chan struct{}),
	}
	if cfg.AlignPasses {
		c.canAlign = c.eng.OnCircularPass(func() {
			select {
			case c.pass <- struct{}{}:
			default:
			}
		})
	}
	c.wg.Add(1)
	go c.dispatcher()
	return c
}

// Close stops the controller. Queued waiters fail with core.ErrClosed;
// already-admitted queries are unaffected (their release() still
// works).
func (c *Controller) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	close(c.done)
	c.kick()
	c.wg.Wait()
	if c.canAlign {
		c.eng.OnCircularPass(nil)
	}
}

// Acquire asks to start one query for tenantName, blocking in the
// tenant's queue until admitted. On success the returned release must
// be called when the query finishes (idempotent; safe to defer). On
// shed the error is *ErrRetryAfter, the query never started, and there
// is nothing to release. Cancelling ctx abandons the wait.
func (c *Controller) Acquire(ctx context.Context, tenantName string) (release func(), err error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, core.ErrClosed
	}
	t := c.tenantLocked(tenantName)
	if len(t.queue) >= c.cfg.MaxQueue {
		c.mu.Unlock()
		return nil, c.shed(t, "admit_shed_queue")
	}
	if c.cfg.MaxWait > 0 {
		// Queries that must finish before this one can start: everything
		// queued plus whatever of the in-flight set exceeds the slots the
		// newcomer could still take. Zero means a slot is free now.
		ahead := c.inflight + c.queued - c.cfg.Slots + 1
		if ahead > 0 {
			waves := (ahead + c.cfg.Slots - 1) / c.cfg.Slots
			if wait := c.marginal * time.Duration(waves); wait > c.cfg.MaxWait {
				c.mu.Unlock()
				return nil, c.shed(t, "admit_shed_wait")
			}
		}
	}
	w := &waiter{ready: make(chan error, 1)}
	t.queue = append(t.queue, w)
	c.queued++
	c.mu.Unlock()
	c.stats.Get("admit_queued").Inc()
	c.kick()

	select {
	case err := <-w.ready:
		if err != nil {
			return nil, err
		}
		return c.releaseFunc(t), nil
	case <-ctx.Done():
		c.mu.Lock()
		removed := removeWaiter(t, w)
		if removed {
			c.queued--
		}
		c.mu.Unlock()
		if !removed {
			// Lost the race: the dispatcher admitted us as ctx fired.
			// Consume the verdict and hand the slot straight back.
			if err := <-w.ready; err == nil {
				c.releaseFunc(t)()
			}
		}
		c.stats.Get("admit_abandoned").Inc()
		return nil, ctx.Err()
	}
}

// shed records a shed and builds its typed verdict. Called unlocked.
func (c *Controller) shed(t *tenant, counter string) error {
	c.mu.Lock()
	backlog := c.inflight + c.queued
	after := core.PredictRetryAfter(c.inflight, c.queued, c.cfg.Slots, c.svcEWMA)
	c.mu.Unlock()
	c.stats.Get("admit_shed").Inc()
	c.stats.Get(counter).Inc()
	c.stats.Get("tenant_shed:" + t.name).Inc()
	return &ErrRetryAfter{Tenant: t.name, After: after, Queued: backlog}
}

// releaseFunc builds the idempotent slot release for an admitted query.
func (c *Controller) releaseFunc(t *tenant) func() {
	start := time.Now()
	var once sync.Once
	return func() {
		once.Do(func() {
			service := time.Since(start)
			c.mu.Lock()
			c.inflight--
			t.inflight--
			// EWMA (α=1/4): smooth enough to ride out one slow query,
			// fresh enough to track a phase change within ~a dozen.
			c.svcEWMA += (service - c.svcEWMA) / 4
			c.marginal = c.predictMarginalLocked()
			c.mu.Unlock()
			c.stats.Get("admit_done").Inc()
			c.kick()
		})
	}
}

// predictMarginalLocked estimates the cost of admitting one more query.
// In the CJOIN modes this is the GQP marginal-cost model — per-query
// admission cost measured by the stage plus the mix's shared work
// linearized per member; elsewhere one more query simply costs one
// service time through a free slot.
func (c *Controller) predictMarginalLocked() time.Duration {
	counters := c.eng.Counters()
	admitted := counters["cjoin_admitted"]
	if admitted <= 0 {
		return c.svcEWMA
	}
	n := c.inflight
	if n < 1 {
		n = 1
	}
	g := core.GQPCost{
		Queries:           n,
		SharedWork:        c.svcEWMA * time.Duration(n),
		AdmissionPerQuery: time.Duration(c.eng.CJOINAdmissionTime() / admitted),
	}
	return g.Marginal()
}

func (c *Controller) tenantLocked(name string) *tenant {
	t, ok := c.tenants[name]
	if !ok {
		w := 1
		if c.cfg.Weights != nil && c.cfg.Weights[name] > 0 {
			w = c.cfg.Weights[name]
		}
		t = &tenant{name: name, weight: w}
		c.tenants[name] = t
		c.order = append(c.order, t)
	}
	return t
}

func removeWaiter(t *tenant, w *waiter) bool {
	for i, q := range t.queue {
		if q == w {
			t.queue = append(t.queue[:i], t.queue[i+1:]...)
			return true
		}
	}
	return false
}

func (c *Controller) kick() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// dispatcher is the single admission loop: it waits for demand and a
// free slot, optionally holds for a pass boundary, then releases a
// weighted-round-robin batch of waiters.
func (c *Controller) dispatcher() {
	defer c.wg.Done()
	for {
		c.mu.Lock()
		if c.closed {
			c.failAllLocked()
			c.mu.Unlock()
			return
		}
		if c.queued == 0 || c.inflight >= c.cfg.Slots {
			c.mu.Unlock()
			select {
			case <-c.wake:
			case <-c.done:
			}
			continue
		}
		align := c.canAlign && c.eng.InFlight() > 0
		c.mu.Unlock()

		aligned := false
		if align {
			// Hold the batch for the next circular-pass boundary: the
			// admission pause then coincides with windows closing, and
			// every waiter that arrived meanwhile joins the same pause.
			// Passes only advance while queries run (checked above), and
			// the timer bounds the hold if the pass stalls anyway.
			timer := time.NewTimer(c.cfg.MaxAlignWait)
			select {
			case <-c.pass:
				aligned = true
			case <-timer.C:
				c.stats.Get("admit_align_timeout").Inc()
			case <-c.done:
			}
			timer.Stop()
		}

		c.mu.Lock()
		batch := c.selectLocked()
		c.mu.Unlock()
		if len(batch) == 0 {
			continue
		}
		if aligned {
			c.stats.Get("admit_pass_aligned").Add(int64(len(batch)))
			c.stats.Get("admit_pass_batches").Inc()
		}
		for _, w := range batch {
			w.ready <- nil
		}
	}
}

// selectLocked picks the next admission batch by weighted round-robin
// with a persistent cursor: a backlogged tenant is granted its weight
// in consecutive admissions before the cursor moves on, and the cursor
// survives across batches so single-slot dispatch still alternates
// tenants instead of draining whichever queue comes first in the order.
func (c *Controller) selectLocked() []*waiter {
	if c.closed || len(c.order) == 0 {
		return nil
	}
	free := c.cfg.Slots - c.inflight
	var out []*waiter
	idle := 0 // consecutive tenants inspected with nothing queued
	for free > 0 && c.queued > 0 && idle < len(c.order) {
		t := c.order[c.rr%len(c.order)]
		if len(t.queue) == 0 {
			t.credit = 0
			c.rr++
			idle++
			continue
		}
		idle = 0
		if t.credit <= 0 {
			t.credit = t.weight
		}
		w := t.queue[0]
		t.queue = t.queue[1:]
		t.credit--
		c.queued--
		c.inflight++
		t.inflight++
		free--
		out = append(out, w)
		c.stats.Get("admit_admitted").Inc()
		c.stats.Get("tenant_admitted:" + t.name).Inc()
		if t.credit <= 0 {
			c.rr++
		}
	}
	return out
}

func (c *Controller) failAllLocked() {
	for _, t := range c.tenants {
		for _, w := range t.queue {
			w.ready <- core.ErrClosed
		}
		t.queue = nil
	}
	c.queued = 0
}

// Stats snapshots the controller's counters: admit_admitted,
// admit_queued, admit_shed (with admit_shed_queue / admit_shed_wait
// split), admit_pass_aligned / admit_pass_batches / admit_align_timeout,
// admit_abandoned, admit_done, and per-tenant tenant_admitted:<name> /
// tenant_shed:<name>.
func (c *Controller) Stats() map[string]int64 { return c.stats.Snapshot() }

// Queued returns the number of waiters across all tenant queues.
func (c *Controller) Queued() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.queued
}

// InFlight returns the number of admitted, unreleased queries.
func (c *Controller) InFlight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inflight
}

// ServiceEstimate returns the controller's current per-query service
// time estimate (EWMA of observed completions).
func (c *Controller) ServiceEstimate() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.svcEWMA
}
