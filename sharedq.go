// Package sharedq is a from-scratch Go reproduction of "Sharing Data
// and Work Across Concurrent Analytical Queries" (Psaroudakis,
// Athanassoulis, Ailamaki; PVLDB 6(9), 2013).
//
// It provides a staged (QPipe-style) analytical execution engine over a
// Star Schema Benchmark substrate, with the paper's sharing techniques:
//
//   - shared (circular) table scans,
//   - Simultaneous Pipelining (SP) with both communication models under
//     comparison — push-based FIFOs and pull-based Shared Pages Lists,
//   - the CJOIN global query plan with shared selections and hash
//     joins, and
//   - SP applied on top of CJOIN (the paper's CJOIN-SP integration).
//
// Execution is vectorized: every engine configuration (Baseline
// through CJOIN-SP) and both Table 2 extension substrates (SharedDB,
// Crescando) operate batch-at-a-time over typed column batches
// (internal/vec) with selection-vector filter kernels, columnar
// hash-join probes and batch aggregation. Each 32 KB storage page is
// decoded into a column batch once and shared by all concurrent scans
// through a per-table decoded-batch cache, extending the paper's
// sharing of I/O work to decode work. Query-centric execution is
// additionally morsel-parallel (Options.Parallelism, default
// GOMAXPROCS): one query fans its scan→filter→probe→aggregate
// pipeline out across all cores with results bit-identical to the
// sequential path.
//
// Storage is either slotted row pages or, with
// SystemConfig.Compressed, compressed columnar pages (dictionary,
// run-length and bit-packed encodings chosen per column at load
// time). Execution is decode-late: predicates, hash joins and
// group-by operate directly on dictionary codes where they can, and
// results are bit-identical across both formats.
//
// Quick start:
//
//	sys, _ := sharedq.NewSystem(sharedq.SystemConfig{SF: 0.01})
//	eng := sharedq.NewEngine(sys, sharedq.Options{Mode: sharedq.CJOINSP})
//	defer eng.Close()
//	rows, schema, _ := eng.Query(`SELECT c_nation, SUM(lo_revenue) AS rev
//	    FROM lineorder, customer WHERE lo_custkey = c_custkey
//	    GROUP BY c_nation ORDER BY rev DESC LIMIT 5`)
//
// # Query lifecycle
//
// Every engine entry point has a context-aware variant
// (Engine.QueryCtx, Engine.SubmitCtx): cancelling the context — or
// exceeding its deadline, or the engine-wide Options.DefaultTimeout —
// aborts the query mid-flight. A cancelled query detaches from shared
// circular scans, retracts its CJOIN admission window so it stops
// gating the shared pass, releases every pooled batch it checked out,
// and returns context.Canceled or context.DeadlineExceeded:
//
//	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
//	defer cancel()
//	rows, schema, err := eng.QueryCtx(ctx, sql)
//
// Engine.Close is a graceful drain — it stops admitting (later
// submissions return ErrClosed), waits for in-flight queries, then
// tears down the shared pipelines — and Engine.Shutdown bounds the
// drain with a context, force-cancelling whatever is still running
// when it expires.
//
// # Streaming results
//
// Engine.Stream returns a Rows cursor that delivers result rows as
// the pipeline produces them, instead of collecting everything first
// (Engine.Query and Engine.QueryCtx are collect-all wrappers over the
// same path). Iterate with Next/Scan, check Err after the loop, and
// always Close — closing mid-stream cancels the query exactly like a
// context cancellation, so an abandoned cursor detaches from shared
// scans and leaks nothing:
//
//	rows, err := eng.Stream(ctx, sql)
//	if err != nil { ... }       // admission errors surface here; a shed query never starts
//	defer rows.Close()
//	for rows.Next() {
//	    var nation string
//	    var rev int64
//	    if err := rows.Scan(&nation, &rev); err != nil { ... }
//	}
//	if err := rows.Err(); err != nil { ... }
//
// Engine.Stats returns a point-in-time observability snapshot (the
// sharing and robustness counters, batch-pool health, in-flight
// count) — the surface the network daemon's /metrics endpoint
// scrapes.
//
// # Serving and admission control
//
// Command sharedqd (cmd/sharedqd) serves an engine over the network:
// a length-prefixed binary frame protocol that streams column batches
// as the cursor produces them, plus an HTTP/JSON endpoint and a
// Prometheus-style /metrics. A client disconnect cancels its running
// query through the same lifecycle path as a context cancellation.
// In front of the engine sits a sharing-aware admission controller
// with per-tenant weighted fair queueing, predictive shedding (from
// the engine's observed service times and the GQPCost.Marginal cost
// model), and — in the CJOIN modes — admission batching aligned to
// circular-scan pass boundaries, amortizing the per-admission
// filter-chain pause (the pipeline stall of the paper's §3.1). A shed query never
// starts; it fails with *ErrRetryAfter (which matches ErrOverloaded
// under errors.Is) carrying a concrete resubmission delay.
//
// # Fault tolerance and overload
//
// Every page carries a CRC32-C checksum that is verified before
// decode, on the batch path and the row path alike. A failed
// verification is retried against the device a bounded number of
// times with backoff (transient faults heal silently); a page that
// stays corrupt is quarantined, and every query touching it — and
// only those queries — fails with *ErrCorruptPage (match with
// errors.As). A kernel panic during execution is contained to the
// query that triggered it, surfacing as *PanicError while unrelated
// queries sharing the same scan or join pipeline keep running.
// Options.MaxInFlight, Options.OverloadQueue and Options.MaxPoolBytes
// bound admission: over-limit submissions fail fast with
// ErrOverloaded (or queue for a slot, with OverloadQueue), so an
// overloaded engine sheds load instead of collapsing. The "chaos"
// experiment drives this whole schedule — corruption, read faults, a
// panicking kernel and an overload burst — across every mode and
// verifies that concurrent healthy queries return bit-identical
// results throughout.
//
// The internal packages hold the implementation; this package is the
// supported surface, re-exporting the core types.
package sharedq

import (
	"time"

	"sharedq/internal/admit"
	"sharedq/internal/core"
	"sharedq/internal/exec"
	"sharedq/internal/harness"
	"sharedq/internal/heap"
	"sharedq/internal/qpipe"
)

// ErrClosed is returned by query submissions once the engine has begun
// shutting down.
var ErrClosed = core.ErrClosed

// ErrOverloaded is returned by query submissions shed at admission: the
// engine is at Options.MaxInFlight (without OverloadQueue) or the batch
// pool's live memory exceeds Options.MaxPoolBytes. The query never
// started; retrying later is safe.
var ErrOverloaded = core.ErrOverloaded

// ErrCorruptPage identifies a quarantined page that failed checksum
// verification after exhausting its read retries. Queries touching the
// page fail with it (match with errors.As); all other queries are
// unaffected.
type ErrCorruptPage = heap.ErrCorruptPage

// PanicError wraps a panic recovered during one query's execution. The
// panicking query fails with it; queries sharing the same pipeline
// keep running.
type PanicError = exec.PanicError

// ErrRetryAfter is the admission controller's shed verdict: the query
// never started, and After is a concrete resubmission delay predicted
// from the engine's observed service times. It matches ErrOverloaded
// under errors.Is, so existing overload handling keeps working.
type ErrRetryAfter = admit.ErrRetryAfter

// Engine configuration modes (§5.1 of the paper).
const (
	Baseline = core.Baseline // query-centric volcano execution, no sharing
	QPipe    = core.QPipe    // staged engine, no sharing
	QPipeCS  = core.QPipeCS  // + circular scans
	QPipeSP  = core.QPipeSP  // + join-stage Simultaneous Pipelining
	CJOIN    = core.CJOIN    // global query plan with shared operators
	CJOINSP  = core.CJOINSP  // CJOIN with SP on the CJOIN stage
)

// Communication models for SP (§4).
const (
	CommFIFO = qpipe.CommFIFO // push-based, copy fan-out (original QPipe)
	CommSPL  = qpipe.CommSPL  // pull-based Shared Pages Lists
)

// Re-exported core types.
type (
	// Mode selects an engine configuration.
	Mode = core.Mode
	// SystemConfig describes the simulated machine and database.
	SystemConfig = core.SystemConfig
	// System is the storage substrate + catalog + metrics.
	System = core.System
	// Options tunes an Engine.
	Options = core.Options
	// Engine executes queries under one configuration.
	Engine = core.Engine
	// AdaptiveEngine routes queries between QPipe-SP and CJOIN-SP by
	// concurrency, operationalizing the paper's Table 1.
	AdaptiveEngine = core.AdaptiveEngine
	// Advice is a Table 1 rules-of-thumb recommendation.
	Advice = core.Advice
	// PushSPCost feeds the push-SP prediction model of [14].
	PushSPCost = core.PushSPCost
	// GQPCost feeds the shared-operator prediction model the paper
	// sketches in §6.
	GQPCost = core.GQPCost
	// Rows is the streaming result cursor returned by Engine.Stream.
	Rows = core.Rows
	// Stats is Engine.Stats's observability snapshot.
	Stats = core.Stats
	// AdmitConfig tunes the sharing-aware admission controller that
	// fronts a served engine (cmd/sharedqd).
	AdmitConfig = admit.Config
	// AdmitController is the admission controller itself, for embedding
	// sharedqd-style serving in another process.
	AdmitController = admit.Controller
	// Comm selects a communication model.
	Comm = qpipe.Comm
	// Result is one measured harness run.
	Result = harness.Result
	// Experiment is one reproducible paper figure/table.
	Experiment = harness.Experiment
	// Params scales an experiment.
	Params = harness.Params
	// Report is an experiment's rendered output.
	Report = harness.Report
)

// NewSystem builds the substrate and loads the SSB database.
func NewSystem(cfg SystemConfig) (*System, error) { return core.NewSystem(cfg) }

// NewEngine builds an engine over sys.
func NewEngine(sys *System, opts Options) *Engine { return core.NewEngine(sys, opts) }

// NewAdaptiveEngine builds an engine that applies the Table 1 rules of
// thumb per query (cores = 0 selects runtime.NumCPU()).
func NewAdaptiveEngine(sys *System, cores int, opts Options) *AdaptiveEngine {
	return core.NewAdaptiveEngine(sys, cores, opts)
}

// Modes lists all configurations in presentation order.
func Modes() []Mode { return core.Modes() }

// ParseMode resolves a configuration name ("qpipe-sp", "CJOIN", ...).
func ParseMode(name string) (Mode, error) { return core.ParseMode(name) }

// Advise applies the paper's rules of thumb (Table 1).
func Advise(concurrentQueries, cores int) Advice { return core.Advise(concurrentQueries, cores) }

// PredictPushSP applies the push-SP prediction model of [14].
func PredictPushSP(c PushSPCost) bool { return core.PredictPushSP(c) }

// PredictGQP applies the §6 shared-operator prediction model.
func PredictGQP(c GQPCost) bool { return core.PredictGQP(c) }

// PredictRetryAfter estimates how long a newly shed query should wait
// before resubmitting, given the system's load and observed average
// service time.
func PredictRetryAfter(inflight, queued, slots int, avgService time.Duration) time.Duration {
	return core.PredictRetryAfter(inflight, queued, slots, avgService)
}

// NewAdmitController builds an admission controller over cfg.Engine.
func NewAdmitController(cfg AdmitConfig) *AdmitController { return admit.New(cfg) }

// Experiments lists every reproducible figure and table.
func Experiments() []Experiment { return harness.All() }

// ExperimentByID finds one experiment ("6a", "10l", "16tp", ...).
func ExperimentByID(id string) (Experiment, bool) { return harness.ByID(id) }

// RunBatch submits all queries at once and measures them (§5.1
// methodology).
func RunBatch(sys *System, opts Options, sqls []string, cold bool) (Result, error) {
	return harness.RunBatch(sys, opts, sqls, cold)
}
