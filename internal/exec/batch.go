package exec

import (
	"context"
	"time"

	"sharedq/internal/catalog"
	"sharedq/internal/expr"
	"sharedq/internal/heap"
	"sharedq/internal/metrics"
	"sharedq/internal/pages"
	"sharedq/internal/plan"
	"sharedq/internal/vec"
)

// This file holds the vectorized batch execution path: table scans
// that decode each 32 KB page once into a shared column batch, filter
// kernels over selection vectors, a columnar hash join probed over raw
// key columns, and batch-at-a-time aggregation. Every engine
// configuration (Baseline through CJOIN-SP) executes on this path; the
// row-at-a-time operators in operators.go remain as the reference
// implementation and compatibility surface.

// ReadTableBatch fetches page idx of t as a decoded column batch
// through the environment's decoded-batch cache (decode-once sharing).
// Accounted to metrics.Scans.
func ReadTableBatch(env *Env, t *catalog.Table, idx int) (*vec.Batch, error) {
	return readPageBatch(env, t, idx, vec.Kinds(t.Schema))
}

// readPageBatch is the single page-read gate every batch scan goes
// through: the fault-injection hook, the Scans timing and the
// decoded-batch cache live here, so no read path can drift out from
// under the error-injection tests. kinds is caller-supplied so tight
// scan loops can hoist its computation.
func readPageBatch(env *Env, t *catalog.Table, idx int, kinds []pages.Kind) (*vec.Batch, error) {
	if err := pageFaults(env, t.Name, idx); err != nil {
		return nil, err
	}
	t0 := time.Now()
	defer env.Col.AddSince(metrics.Scans, t0)
	return heap.ReadPageBatch(env.Pool, env.Guard, env.Batches, t, idx, kinds, env.Col)
}

// pageFaults applies the environment's fault-injection hooks for one
// page read: ReadFault fails the read outright, CorruptFault schedules
// a one-shot bit flip the guard's verification will catch. Both the
// batch and row read paths funnel through it.
func pageFaults(env *Env, table string, page int) error {
	if env.ReadFault != nil {
		if err := env.ReadFault(table, page); err != nil {
			return err
		}
	}
	if env.CorruptFault != nil && env.CorruptFault(table, page) {
		env.Guard.InjectCorruption(table, page)
	}
	return nil
}

// ScanTableBatches reads every page of t in order as column batches.
func ScanTableBatches(env *Env, t *catalog.Table, emit func(*vec.Batch) error) error {
	return ScanTableBatchesCtx(context.Background(), env, t, emit)
}

// ScanTableBatchesCtx is ScanTableBatches with cooperative
// cancellation: the context is checked before every page read, so a
// cancelled scan stops within one page. An emit error aborts the scan;
// emit owns the batch for the duration of the call only (decoded-cache
// batches are unpooled, so no release bookkeeping is needed here).
func ScanTableBatchesCtx(ctx context.Context, env *Env, t *catalog.Table, emit func(*vec.Batch) error) error {
	kinds := vec.Kinds(t.Schema)
	for i := 0; i < t.NumPages; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		b, err := readPageBatch(env, t, i, kinds)
		if err != nil {
			return err
		}
		if err := emit(b); err != nil {
			return err
		}
	}
	return nil
}

// BatchJoin is the vectorized build side of one fact-to-dimension hash
// join: the selected dimension rows stored columnar, plus an
// open-chaining hash table over the dimension key column. Probing
// walks a raw key column and materializes the joined batch with one
// gather per column instead of allocating a row per match.
type BatchJoin struct {
	dim        *vec.Batch // selected dimension rows
	keyIdx     int        // key column ordinal within dim
	factColIdx int        // probe-side key ordinal
	keyKind    pages.Kind

	heads []int32 // bucket -> first dim row in chain (-1 when empty)
	next  []int32 // dim row -> next row in its chain

	outKinds []pages.Kind // cached joined layout (probe cols + dim cols)
}

// NewBatchJoin returns an empty build side for d over the dimension
// schema dims.
func NewBatchJoin(d plan.DimJoin, sizeHint int) *BatchJoin {
	n := 16
	for n < sizeHint*2 {
		n *= 2
	}
	j := &BatchJoin{
		dim:        vec.New(vec.Kinds(d.Schema), sizeHint),
		keyIdx:     d.DimKeyIdx,
		factColIdx: d.FactColIdx,
		keyKind:    d.Schema.Columns[d.DimKeyIdx].Kind,
		heads:      make([]int32, n),
	}
	for i := range j.heads {
		j.heads[i] = -1
	}
	return j
}

// hashKey hashes dim row r's key; the same FNV-1a the row-at-a-time
// HashTable uses, so the Hashing CPU category stays comparable.
func (j *BatchJoin) hashKey(r int) uint64 {
	return j.dim.Cols[j.keyIdx].HashAt(r)
}

// Add appends the selected rows of a dimension batch to the build side
// and links them into the hash chains.
func (j *BatchJoin) Add(b *vec.Batch, sel []int) {
	for _, i := range sel {
		j.dim.AppendFrom(b, i)
	}
	n := j.dim.Len()
	if n > len(j.heads)/2 {
		j.rehash(n)
		return
	}
	mask := uint64(len(j.heads) - 1)
	for r := n - len(sel); r < n; r++ {
		h := j.hashKey(r) & mask
		j.next = append(j.next, j.heads[h])
		j.heads[h] = int32(r)
	}
}

// rehash rebuilds the chains at double the bucket count.
func (j *BatchJoin) rehash(rows int) {
	n := len(j.heads)
	for n < rows*2 {
		n *= 2
	}
	j.heads = make([]int32, n)
	for i := range j.heads {
		j.heads[i] = -1
	}
	j.next = j.next[:0]
	mask := uint64(n - 1)
	for r := 0; r < rows; r++ {
		h := j.hashKey(r) & mask
		j.next = append(j.next, j.heads[h])
		j.heads[h] = int32(r)
	}
}

// Rows returns the number of build-side rows.
func (j *BatchJoin) Rows() int { return j.dim.Len() }

// SetProbeKinds fixes the joined output layout for a probe-side batch
// layout of probe, returning the joined layout. Concurrent probers
// (morsel workers) must call it once before probing begins, so Probe's
// lazy layout initialization never races.
func (j *BatchJoin) SetProbeKinds(probe []pages.Kind) []pages.Kind {
	j.outKinds = vec.ConcatKinds(probe, j.dim.Kinds())
	return j.outKinds
}

// ProbeScratch holds the reusable per-query probe state: the flat
// (probe row, build row) match pairs of one batch. One scratch per
// probing goroutine.
type ProbeScratch struct {
	probe []int32
	build []int32
}

// Probe joins the selected rows of batch b against the build side,
// returning the joined batch (probe columns followed by dimension
// columns, in match order). Hash and chain walks are accounted to
// metrics.Hashing, output materialization to metrics.Joins — the same
// split the row-at-a-time ProbeJoin reports.
func (j *BatchJoin) Probe(env *Env, b *vec.Batch, sel []int, ps *ProbeScratch) *vec.Batch {
	t0 := time.Now()
	j.matchPairs(b, sel, ps)
	env.Col.AddSince(metrics.Hashing, t0)
	return j.materializePairs(env, b, ps)
}

// matchPairs collects the (probe row, build row) key-match pairs of the
// selected rows into ps — the shared chain-walk core of Probe and the
// bitmap-annotated SharedBatchJoin probe.
func (j *BatchJoin) matchPairs(b *vec.Batch, sel []int, ps *ProbeScratch) {
	probe, build := ps.probe[:0], ps.build[:0]
	mask := uint64(len(j.heads) - 1)
	kc := &b.Cols[j.factColIdx]
	switch {
	case j.keyKind == pages.KindInt && kc.Kind == pages.KindInt:
		keys := j.dim.Cols[j.keyIdx].I
		col := kc.I
		for _, i := range sel {
			k := col[i]
			for e := j.heads[pages.HashInt64(k)&mask]; e >= 0; e = j.next[e] {
				if keys[e] == k {
					probe = append(probe, int32(i))
					build = append(build, e)
				}
			}
		}
	case j.keyKind == pages.KindString && kc.Kind == pages.KindString:
		bk := &j.dim.Cols[j.keyIdx]
		if bk.Coded() && kc.Dict == bk.Dict {
			// Both sides carry the same shared dictionary: compare raw
			// uint32 codes and hash through the dictionary's precomputed
			// value hashes, which bucket identically to plain probes —
			// the join never touches the decoded strings.
			d := kc.Dict
			keys := bk.Codes
			col := kc.Codes
			for _, i := range sel {
				k := col[i]
				for e := j.heads[d.Hash(k)&mask]; e >= 0; e = j.next[e] {
					if keys[e] == k {
						probe = append(probe, int32(i))
						build = append(build, e)
					}
				}
			}
			break
		}
		for _, i := range sel {
			k := kc.Str(i)
			for e := j.heads[pages.HashString(k)&mask]; e >= 0; e = j.next[e] {
				if bk.Str(int(e)) == k {
					probe = append(probe, int32(i))
					build = append(build, e)
				}
			}
		}
	case j.keyKind == pages.KindFloat && kc.Kind == pages.KindFloat:
		// Float keys hash from the raw column with the same canonical
		// form Value.Hash uses; equality is Compare==0 (NaN equals NaN),
		// matching the row-at-a-time hash table.
		keys := j.dim.Cols[j.keyIdx].F
		col := kc.F
		for _, i := range sel {
			k := col[i]
			for e := j.heads[pages.HashFloat64(k)&mask]; e >= 0; e = j.next[e] {
				if ke := keys[e]; !(ke < k) && !(ke > k) {
					probe = append(probe, int32(i))
					build = append(build, e)
				}
			}
		}
	default:
		// Mismatched key kinds: hash straight off the raw typed probe
		// column (the kind-tagged hash makes cross-kind probes land in
		// other buckets and miss, matching the row-at-a-time hash
		// table); the rare colliding candidates are compared with full
		// Value semantics.
		for _, i := range sel {
			for e := j.heads[kc.HashAt(i)&mask]; e >= 0; e = j.next[e] {
				if j.dim.Value(j.keyIdx, int(e)).Equal(kc.Value(i)) {
					probe = append(probe, int32(i))
					build = append(build, e)
				}
			}
		}
	}
	ps.probe, ps.build = probe, build
}

// materializePairs gathers ps's match pairs into a pooled joined batch
// (probe columns followed by dimension columns). Accounted to
// metrics.Joins.
func (j *BatchJoin) materializePairs(env *Env, b *vec.Batch, ps *ProbeScratch) *vec.Batch {
	t1 := time.Now()
	// A BatchJoin is probed at a fixed pipeline position, so the joined
	// layout is computed once and reused. Parallel probers must fix it
	// up front with SetProbeKinds; single-goroutine callers may rely on
	// this lazy initialization.
	if j.outKinds == nil {
		j.outKinds = vec.ConcatKinds(b.Kinds(), j.dim.Kinds())
	}
	out := env.GetBatch(j.outKinds, len(ps.probe))
	nb := b.NumCols()
	for c := range out.Cols {
		oc := &out.Cols[c]
		if c < nb {
			gatherColumn(oc, &b.Cols[c], ps.probe)
		} else {
			gatherColumn(oc, &j.dim.Cols[c-nb], ps.build)
		}
	}
	out.SetLen(len(ps.probe))
	env.Col.AddSince(metrics.Joins, t1)
	return out
}

// gatherColumn appends src[idx] for every idx into dst, keeping
// dictionary string columns coded whenever dst can adopt src's
// dictionary (decode-late: join gathers move codes, not strings).
func gatherColumn(dst, src *vec.Column, idx []int32) {
	vec.GatherColumn(dst, src, idx)
}

// BuildBatchJoin scans dimension d, filters with its predicate
// (vectorized), and builds the columnar join build side. Filtering is
// accounted to metrics.Joins and insertion to metrics.Hashing, like
// the row-at-a-time BuildDimTable.
func BuildBatchJoin(env *Env, d plan.DimJoin) (*BatchJoin, error) {
	return BuildBatchJoinCtx(context.Background(), env, d)
}

// BuildBatchJoinCtx is BuildBatchJoin with cooperative cancellation:
// the dimension scan checks the context before every page.
func BuildBatchJoinCtx(ctx context.Context, env *Env, d plan.DimJoin) (*BatchJoin, error) {
	t, err := env.Cat.Get(d.Table)
	if err != nil {
		return nil, err
	}
	// Size for the table but cap the pre-allocation: selective
	// dimension predicates keep a fraction of the rows, and concurrent
	// query-centric executions each build their own side. The chain
	// table rehashes as it grows.
	hint := int(t.NumRows)
	if hint > 4096 {
		hint = 4096
	}
	j := NewBatchJoin(d, hint)
	vpred := expr.CompileVecPred(d.Pred)
	var selBuf []int
	err = ScanTableBatchesCtx(ctx, env, t, func(b *vec.Batch) error {
		t0 := time.Now()
		sel := vec.FullSel(b.Len(), &selBuf)
		if vpred != nil {
			sel = vpred(b, sel)
		}
		env.Col.AddSince(metrics.Joins, t0)
		t1 := time.Now()
		j.Add(b, sel)
		env.Col.AddSince(metrics.Hashing, t1)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return j, nil
}

// AddBatch folds the selected rows of a joined column batch into the
// aggregator: one group-id computation pass over the selection, then
// one columnar accumulate pass per aggregate. The steady state (every
// group already seen) performs no allocation — the group-id scratch,
// key buffer and per-group registers are all reused. Accounted to
// metrics.Aggregation.
func (a *Aggregator) AddBatch(b *vec.Batch, sel []int) {
	t0 := time.Now()
	defer a.col.AddSince(metrics.Aggregation, t0)
	if a.mode == groupNone {
		a.ensureNone()
		for _, g := range a.gaccs {
			g.AddAll(b, sel, 0)
		}
		return
	}
	if len(sel) == 0 {
		return
	}
	gids := a.groupIDsBatch(b, sel)
	for _, g := range a.gaccs {
		g.AddBatch(b, sel, gids)
	}
}

// groupIDsBatch maps each selected row to its dense group id, reusing
// the aggregator's scratch slice. New groups are registered on first
// sight (the only allocating case).
func (a *Aggregator) groupIDsBatch(b *vec.Batch, sel []int) []int32 {
	gids := a.gidBuf
	if cap(gids) < len(sel) {
		// Round up so a selection that creeps larger batch over batch
		// grows the scratch logarithmically, not per batch.
		n := 2 * cap(gids)
		if n < len(sel) {
			n = len(sel)
		}
		gids = make([]int32, n)
		a.gidBuf = gids
	}
	gids = gids[:len(sel)]
	switch a.mode {
	case groupInt1:
		if c := &b.Cols[a.k0]; c.Kind == pages.KindInt {
			col := c.I
			if !a.hotSampled {
				var smp [hotSampleMax]uint64
				n := 0
				for _, i := range sel {
					if n == hotSampleMax {
						break
					}
					smp[n] = uint64(col[i])
					n++
				}
				a.sampleHotKeys(smp[:n])
			}
			if hid := a.hotIDs; hid != nil {
				hk := a.hotKeys
				for j, i := range sel {
					k := uint64(col[i])
					h := hotSlot(k) & a.hotMask
					if hid[h] != 0 && hk[h] == k {
						id := hid[h] - 1
						a.touch(id, i)
						gids[j] = id
						continue
					}
					id, ok := a.intIDs[k]
					if !ok {
						id = a.newGroupID(b, i, nil)
						a.intIDs[k] = id
					} else {
						a.touch(id, i)
					}
					hk[h], hid[h] = k, id+1
					gids[j] = id
				}
				return gids
			}
			for j, i := range sel {
				k := uint64(col[i])
				id, ok := a.intIDs[k]
				if !ok {
					id = a.newGroupID(b, i, nil)
					a.intIDs[k] = id
				} else {
					a.touch(id, i)
				}
				gids[j] = id
			}
			return gids
		}
	case groupInt2:
		c0, c1 := &b.Cols[a.k0], &b.Cols[a.k1]
		if c0.Kind == pages.KindInt && c1.Kind == pages.KindInt {
			l, r := c0.I, c1.I
			if !a.hotSampled {
				var smp [hotSampleMax]uint64
				n := 0
				for _, i := range sel {
					if n == hotSampleMax {
						break
					}
					if v0, v1 := l[i], r[i]; fitsInt32(v0) && fitsInt32(v1) {
						smp[n] = packInt2(v0, v1)
						n++
					}
				}
				a.sampleHotKeys(smp[:n])
			}
			hk, hid := a.hotKeys, a.hotIDs
			for j, i := range sel {
				v0, v1 := l[i], r[i]
				if fitsInt32(v0) && fitsInt32(v1) {
					k := packInt2(v0, v1)
					if hid != nil {
						h := hotSlot(k) & a.hotMask
						if hid[h] != 0 && hk[h] == k {
							id := hid[h] - 1
							a.touch(id, i)
							gids[j] = id
							continue
						}
						id, ok := a.intIDs[k]
						if !ok {
							id = a.newGroupID(b, i, nil)
							a.intIDs[k] = id
						} else {
							a.touch(id, i)
						}
						hk[h], hid[h] = k, id+1
						gids[j] = id
						continue
					}
					id, ok := a.intIDs[k]
					if !ok {
						id = a.newGroupID(b, i, nil)
						a.intIDs[k] = id
					} else {
						a.touch(id, i)
					}
					gids[j] = id
				} else {
					gids[j] = a.byteIDBatch(b, i)
				}
			}
			return gids
		}
	}
	if len(a.q.GroupBy) == 1 {
		if c := &b.Cols[a.q.GroupBy[0]]; c.Kind == pages.KindString && c.Coded() {
			memo := a.dictMemo[c.Dict]
			if memo == nil {
				if a.dictMemo == nil {
					a.dictMemo = make(map[*pages.Dict][]int32)
				}
				memo = make([]int32, c.Dict.Len())
				a.dictMemo[c.Dict] = memo
			}
			col := c.Codes
			for j, i := range sel {
				id := memo[col[i]]
				if id == 0 {
					// First sighting of this code: resolve through the
					// byte-key map (the single point where group ids are
					// assigned) and memoize, decoding the value exactly
					// once per (dictionary, code) pair.
					id = a.byteIDBatch(b, i) + 1
					memo[col[i]] = id
				} else {
					a.touch(id-1, i)
				}
				gids[j] = id - 1
			}
			return gids
		}
	}
	for j, i := range sel {
		gids[j] = a.byteIDBatch(b, i)
	}
	return gids
}

// hotSampleMax bounds the one-time key sample that decides whether the
// hot-key cache is worth enabling.
const hotSampleMax = 128

// hotSlot spreads a packed int group key over the direct-mapped hot
// cache (Fibonacci hashing; the cache is power-of-two sized, so the
// caller masks the result).
func hotSlot(k uint64) uint64 { return (k * 0x9e3779b97f4a7c15) >> 32 }

// sampleHotKeys runs once per aggregator, on the first int-keyed batch:
// it counts distinct keys in a bounded sample and enables the hot-key
// cache only when at least half the sample repeats — the signature of a
// skewed or low-cardinality key column. The cache is sized to ~4x the
// sampled distinct count so the hot keys rarely collide; a near-unique
// sample (or one too small to judge) leaves the cache disabled, since
// it would mostly thrash. Each morsel worker owns its own aggregator,
// so each sizes its cache from the pages it actually folds.
func (a *Aggregator) sampleHotKeys(smp []uint64) {
	a.hotSampled = true
	if len(smp) < 16 {
		return
	}
	var distinct [hotSampleMax]uint64
	nd := 0
sample:
	for _, k := range smp {
		for _, d := range distinct[:nd] {
			if d == k {
				continue sample
			}
		}
		distinct[nd] = k
		nd++
	}
	if 2*nd > len(smp) {
		return
	}
	size := 64
	for size < 4*nd {
		size *= 2
	}
	a.hotKeys = make([]uint64, size)
	a.hotIDs = make([]int32, size)
	a.hotMask = uint64(size - 1)
}

// byteIDBatch resolves row i's group id through the byte-encoded key
// map. The m[string(buf)] lookup does not allocate on a hit; only a
// first-seen group copies the key into a map entry.
func (a *Aggregator) byteIDBatch(b *vec.Batch, i int) int32 {
	key := a.encodeBatchKey(b, i)
	id, ok := a.byteIDs[string(key)]
	if !ok {
		id = a.newGroupID(b, i, nil)
		a.byteIDs[string(key)] = id
	} else {
		a.touch(id, i)
	}
	return id
}

// encodeBatchKey encodes row i's group-by values, byte-identical to the
// row path's encodeRowKey so both paths bucket groups identically.
func (a *Aggregator) encodeBatchKey(bat *vec.Batch, i int) []byte {
	b := a.keyBuf[:0]
	for _, idx := range a.q.GroupBy {
		c := &bat.Cols[idx]
		switch c.Kind {
		case pages.KindInt:
			u := uint64(c.I[i])
			b = append(b, 1, byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
				byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
		case pages.KindString:
			b = append(b, 2)
			b = append(b, c.Str(i)...)
			b = append(b, 0)
		default:
			u := uint64(int64(c.F[i] * 100))
			b = append(b, 3, byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
				byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
		}
	}
	a.keyBuf = b
	return b
}

// CompileOutputVals compiles the scalar output expressions of a
// non-aggregated query for batch projection.
func CompileOutputVals(q *plan.Query) []expr.VecVal {
	fns := make([]expr.VecVal, len(q.Output))
	for i, oc := range q.Output {
		if oc.Scalar != nil {
			fns[i] = expr.CompileVecVal(oc.Scalar)
		}
	}
	return fns
}

// ProjectBatch materializes output rows for the selected rows of a
// joined batch, using evaluators from CompileOutputVals.
func ProjectBatch(fns []expr.VecVal, b *vec.Batch, sel []int, dst []pages.Row) []pages.Row {
	for _, i := range sel {
		row := make(pages.Row, len(fns))
		for c, fn := range fns {
			if fn != nil {
				row[c] = fn(b, i)
			}
		}
		dst = append(dst, row)
	}
	return dst
}
