package main

import (
	"testing"

	"sharedq/internal/pages"
)

func check(ref *reference, rows []pages.Row) error {
	c := ref.checker()
	for _, r := range rows {
		c.add(r)
	}
	return c.verify()
}

func clone(rows []pages.Row) []pages.Row {
	out := make([]pages.Row, len(rows))
	for i, r := range rows {
		out[i] = append(pages.Row(nil), r...)
	}
	return out
}

// TestOracleCatchesPerturbedRow: a reordered result passes, and one
// changed cell, a dropped row or a duplicated row fails — for exact
// results (fingerprint) and float results (sorted, relative 1e-9).
func TestOracleCatchesPerturbedRow(t *testing.T) {
	exact := []pages.Row{
		{pages.Str("ALGERIA"), pages.Int(1992), pages.Int(100)},
		{pages.Str("BRAZIL"), pages.Int(1993), pages.Int(250)},
		{pages.Str("CHINA"), pages.Int(1994), pages.Int(-7)},
	}
	floats := []pages.Row{
		{pages.Int(1), pages.Float(0.1 + 0.2)},
		{pages.Int(2), pages.Float(1e12)},
		{pages.Int(3), pages.Float(-4.5)},
	}
	for name, want := range map[string][]pages.Row{"exact": exact, "float": floats} {
		ref := newReference(want)
		if err := check(ref, want); err != nil {
			t.Errorf("%s: identical result rejected: %v", name, err)
		}
		rev := clone(want)
		rev[0], rev[2] = rev[2], rev[0]
		if err := check(ref, rev); err != nil {
			t.Errorf("%s: reordered result rejected: %v", name, err)
		}
		bad := clone(want)
		bad[1][0] = pages.Str("BRAZIL ")
		if name == "float" {
			bad[1][0] = pages.Int(4)
		}
		if check(ref, bad) == nil {
			t.Errorf("%s: perturbed key accepted", name)
		}
		if check(ref, want[:2]) == nil {
			t.Errorf("%s: missing row accepted", name)
		}
		dup := append(clone(want[:2]), clone(want[:1])...)
		if check(ref, dup) == nil {
			t.Errorf("%s: duplicated row in place of another accepted", name)
		}
	}

	ref := newReference(floats)
	near := clone(floats)
	near[1][1] = pages.Float(1e12 * (1 + 1e-12))
	if err := check(ref, near); err != nil {
		t.Errorf("float within 1e-9 rejected: %v", err)
	}
	far := clone(floats)
	far[1][1] = pages.Float(1e12 * (1 + 1e-6))
	if check(ref, far) == nil {
		t.Error("float off by 1e-6 accepted")
	}

	refExact := newReference(exact)
	off := clone(exact)
	off[2][2] = pages.Int(-8)
	if check(refExact, off) == nil {
		t.Error("perturbed integer accepted")
	}
}
