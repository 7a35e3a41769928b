package exec

import (
	"context"

	"sharedq/internal/catalog"
	"sharedq/internal/expr"
	"sharedq/internal/metrics"
	"sharedq/internal/pages"
	"sharedq/internal/plan"
	"sharedq/internal/vec"
)

// FactPipeline is the query-centric fact pipeline: a fact page is read
// as a column batch, filtered through the query's vectorized fact
// predicate, probed through each dimension join in plan order with
// columnar gathers, and handed to a FactSink. Every executor of a whole
// query runs this one chain — the sequential executor (streaming or
// collecting), the morsel workers, and CJOIN's detached-straggler
// continuation — and these rules hold for all of them:
//
//   - Release. The page read is a shared decoded-cache batch (its
//     Release is a no-op). Every probe output is checked out of the
//     batch pool and released once the next probe has consumed it, the
//     last one when the sink returns: a sink that keeps the batch must
//     Retain it.
//   - Panics. A panic in the pipeline or in the sink releases the batch
//     in flight and comes back from Page as a *PanicError: it fails the
//     query, not the process.
//   - Cancellation. Page checks its context once, before the read, so a
//     cancelled query stops within one fact page per goroutine.
//
// A FactPipeline is built once per query and read-only after that: any
// number of goroutines may run Page at once, each with its own
// FactScratch.
type FactPipeline struct {
	fact  *catalog.Table
	kinds []pages.Kind // fact page layout
	pred  expr.VecPred // nil keeps every row
	joins []*BatchJoin // one per dimension, in plan order
}

// NewFactPipeline builds q's dimension build sides (checking ctx per
// dimension page), fixes each join's output layout up front so
// concurrent probers never race on Probe's lazy layout, and compiles
// the fact predicate.
func NewFactPipeline(ctx context.Context, env *Env, q *plan.Query) (*FactPipeline, error) {
	p := &FactPipeline{
		fact:  q.Fact,
		kinds: vec.Kinds(q.Fact.Schema),
		pred:  expr.CompileVecPred(q.FactPred),
		joins: make([]*BatchJoin, len(q.Dims)),
	}
	kinds := p.kinds
	for i, d := range q.Dims {
		j, err := BuildBatchJoinCtx(ctx, env, d)
		if err != nil {
			return nil, err
		}
		kinds = j.SetProbeKinds(kinds)
		p.joins[i] = j
	}
	return p, nil
}

// FactScratch is one goroutine's reusable pipeline state.
type FactScratch struct {
	sel []int
	ps  ProbeScratch
}

// FactSink consumes one fact page's surviving rows: the final batch —
// fact columns, then each dimension's columns in plan order — and a
// non-empty selection over it. The batch is valid for the call only
// (see FactPipeline); an error fails the query.
type FactSink func(b *vec.Batch, sel []int) error

// Page runs fact page idx through the pipeline into sink. Pages that
// keep no rows never reach the sink.
func (p *FactPipeline) Page(ctx context.Context, env *Env, idx int, s *FactScratch, sink FactSink) (err error) {
	if err := ctx.Err(); err != nil {
		return err
	}
	b, err := readPageBatch(env, p.fact, idx, p.kinds)
	if err != nil {
		return err
	}
	defer func() {
		if r := recover(); r != nil {
			err = RecoverPanic(env, r)
		}
		b.Release()
	}()
	sel := vec.FullSel(b.Len(), &s.sel)
	if p.pred != nil {
		sel = p.pred(b, sel)
	}
	for _, j := range p.joins {
		if len(sel) == 0 {
			return nil
		}
		joined := j.Probe(env, b, sel, &s.ps)
		b.Release()
		b = joined
		sel = vec.FullSel(b.Len(), &s.sel)
	}
	if len(sel) == 0 {
		return nil
	}
	return sink(b, sel)
}

// ResultSink is the query-centric tail behind the fact pipeline (and
// behind the staged engines' output ports): aggregation or projection,
// then sort and limit, delivered to a RowSink. A plain projection with
// no ORDER BY and no LIMIT streams one chunk per batch; every other
// query is blocking and emits one final chunk from Close.
type ResultSink struct {
	q      *plan.Query
	col    *metrics.Collector
	emit   RowSink
	stream bool
	agg    *Aggregator
	outFns []expr.VecVal
	rows   []pages.Row // blocking projection, awaiting sort and limit
}

// NewResultSink returns q's tail, delivering to emit.
func NewResultSink(q *plan.Query, col *metrics.Collector, emit RowSink) *ResultSink {
	return newResultSink(q, col, emit, len(q.OrderBy) == 0 && q.Limit < 0)
}

// newResultSink is NewResultSink with the streaming choice made by the
// caller: morsel workers stream each page's projection into its page
// bucket whatever the query's ORDER BY, and sort after the merge.
func newResultSink(q *plan.Query, col *metrics.Collector, emit RowSink, stream bool) *ResultSink {
	s := &ResultSink{q: q, col: col, emit: emit, stream: stream && !q.HasAgg}
	if q.HasAgg {
		s.agg = NewAggregator(q, col)
	} else {
		s.outFns = CompileOutputVals(q)
	}
	return s
}

// Batch folds the selected rows of a joined batch; it is a FactSink.
func (s *ResultSink) Batch(b *vec.Batch, sel []int) error {
	switch {
	case s.agg != nil:
		s.agg.AddBatch(b, sel)
	case s.stream:
		return s.emit(ProjectBatch(s.outFns, b, sel, nil))
	default:
		s.rows = ProjectBatch(s.outFns, b, sel, s.rows)
	}
	return nil
}

// Rows folds a non-empty page of joined rows (row-format exchange
// pages).
func (s *ResultSink) Rows(rows []pages.Row) error {
	switch {
	case s.agg != nil:
		s.agg.Add(rows)
	case s.stream:
		return s.emit(Project(s.q, rows))
	default:
		s.rows = append(s.rows, Project(s.q, rows)...)
	}
	return nil
}

// Close ends the input: a blocking query emits its sorted, limited
// result as the final chunk.
func (s *ResultSink) Close() error {
	if s.stream {
		return nil
	}
	out := s.rows
	if s.agg != nil {
		out = s.agg.Rows()
	}
	return s.emit(SortRows(s.q, s.col, out))
}

// RowSink receives result rows incrementally. Ownership of the slice
// transfers to the sink: the producer never touches it again, so a
// sink may retain or alias it without copying. A sink error aborts the
// producing query and is returned from its streaming entry point.
type RowSink func(rows []pages.Row) error

// CollectSink returns a RowSink appending every chunk to *dst. The
// first chunk is aliased rather than copied — chunk ownership
// transfers to the sink — so blocking single-chunk results (aggregates,
// sorts) collect with zero copies, and the collect-all wrappers around
// the streaming entry points cost nothing over the old materializing
// paths.
func CollectSink(dst *[]pages.Row) RowSink {
	return func(rows []pages.Row) error {
		if *dst == nil {
			*dst = rows
			return nil
		}
		*dst = append(*dst, rows...)
		return nil
	}
}

// Execute runs q batch-at-a-time with the query-centric volcano
// pipeline: dimension build sides first, then the fact table is
// scanned as column batches through the FactPipeline and aggregated or
// projected. No state is shared with any concurrent query — the
// baseline model the paper's sharing techniques are compared against.
// ExecuteRows is the row-at-a-time reference implementation it
// replaced.
//
// When env.Workers() > 1 the fact pipeline runs morsel-parallel (see
// morsel.go) with per-worker partial aggregates and a deterministic
// merge; results are identical to the sequential path, which remains
// the fallback for single-worker environments, tiny tables and
// float-order-sensitive aggregations.
func Execute(env *Env, q *plan.Query) ([]pages.Row, error) {
	return ExecuteCtx(context.Background(), env, q)
}

// ExecuteCtx is Execute under a context: cancellation and deadlines
// are checked once per fact page (and per dimension page during the
// build phase), and a cancelled query returns ctx.Err() with every
// checked-out pool batch released.
func ExecuteCtx(ctx context.Context, env *Env, q *plan.Query) ([]pages.Row, error) {
	var out []pages.Row
	if err := ExecuteStreamCtx(ctx, env, q, CollectSink(&out)); err != nil {
		return nil, err
	}
	return out, nil
}

// ExecuteStreamCtx is ExecuteCtx with incremental delivery: result
// rows are handed to emit as they materialize instead of being
// collected. A plain projection (no aggregate, no ORDER BY, no LIMIT)
// streams one chunk per fact batch, so the first rows arrive while the
// scan is still running and no full result set is ever buffered.
// Aggregations and sorted or limited queries are inherently blocking —
// their result only exists once the input is consumed — and emit a
// single final chunk, as does the morsel-parallel path, whose merged
// result is fully resident at merge time. Every emitted chunk is
// freshly materialized (never a pooled batch), so an abort between
// chunks leaks nothing.
func ExecuteStreamCtx(ctx context.Context, env *Env, q *plan.Query, emit RowSink) (err error) {
	// Panics outside Page (the build phase, the blocking tail) become a
	// per-query *PanicError too.
	defer func() {
		if r := recover(); r != nil {
			err = RecoverPanic(env, r)
		}
	}()
	p, err := NewFactPipeline(ctx, env, q)
	if err != nil {
		return err
	}
	if w := executeParallelism(env, q); w > 1 {
		rows, err := executeMorsels(ctx, env, q, p, w)
		if err != nil {
			return err
		}
		return emit(rows)
	}
	sink := NewResultSink(q, env.Col, emit)
	var s FactScratch
	for pg := 0; pg < q.Fact.NumPages; pg++ {
		if err := p.Page(ctx, env, pg, &s, sink.Batch); err != nil {
			return err
		}
	}
	return sink.Close()
}
