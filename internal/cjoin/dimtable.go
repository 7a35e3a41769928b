package cjoin

import (
	"sharedq/internal/pages"
	"sharedq/internal/vec"
)

// dimTable is the shared hash table of one filter: dimension key →
// (dimension row, bitmap of queries whose predicates select the row).
// It uses the same FNV hashing as the query-centric exec.HashTable so
// the Hashing CPU category is comparable across configurations.
//
// The table holds the union of the tuples selected by all concurrent
// queries — the bookkeeping overhead that makes shared operators lose
// to query-centric ones at low concurrency (§5.2.2).
type dimTable struct {
	buckets []dimBucket
	size    int
}

type dimBucket struct {
	key  pages.Value
	row  pages.Row
	sel  Bitmap
	next *dimBucket
	used bool
}

func newDimTable(sizeHint int) *dimTable {
	n := 16
	for n < sizeHint*2 {
		n *= 2
	}
	return &dimTable{buckets: make([]dimBucket, n)}
}

func (d *dimTable) idx(k pages.Value) int {
	return int(k.Hash() & uint64(len(d.buckets)-1))
}

// setBit records that the query with the given bit selects row i of
// dimension batch b, keyed by column keyCol. The row is materialized
// only when its key is inserted; a key already in the table (selected
// by an earlier query) just gains the bit.
func (d *dimTable) setBit(b *vec.Batch, keyCol, i, bit int) {
	k := b.Value(keyCol, i)
	e := &d.buckets[d.idx(k)]
	if e.used {
		for ; !e.key.Equal(k); e = e.next {
			if e.next == nil {
				e.next = &dimBucket{}
				e = e.next
				break
			}
		}
	}
	if !e.used {
		e.key, e.row, e.used = k, b.Row(i), true
		d.size++
	}
	e.sel = e.sel.Set(bit)
}

// clearBit removes a completed query's bit from every entry. Entries
// whose bitmaps empty are retired lazily (left in place; their sel
// reads as all-zero, which FilterAnd treats as not selected).
func (d *dimTable) clearBit(bit int) {
	for i := range d.buckets {
		for e := &d.buckets[i]; e != nil && e.used; e = e.next {
			e.sel.Clear(bit)
		}
	}
}

// lookup returns the dimension row and selection bitmap for key k.
func (d *dimTable) lookup(k pages.Value) (pages.Row, Bitmap) {
	for e := &d.buckets[d.idx(k)]; e != nil && e.used; e = e.next {
		if e.key.Equal(k) {
			return e.row, e.sel
		}
	}
	return nil, nil
}

// lookupInt probes with a raw int64 key straight off a fact key
// column, skipping per-tuple Value boxing on the pipeline's hot path.
// pages.HashInt64 matches Int(k).Hash(), so probes land in the same
// buckets as the Value-keyed inserts.
func (d *dimTable) lookupInt(k int64) (pages.Row, Bitmap) {
	i := int(pages.HashInt64(k) & uint64(len(d.buckets)-1))
	for e := &d.buckets[i]; e != nil && e.used; e = e.next {
		if e.key.Kind == pages.KindInt && e.key.I == k {
			return e.row, e.sel
		}
	}
	return nil, nil
}

// keys returns the number of distinct dimension keys held.
func (d *dimTable) keys() int { return d.size }
